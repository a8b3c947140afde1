//! Graceful degradation: quarantine-and-retry sampling plus the quality
//! ladder that answers a query with *something sound* when the run trips.
//!
//! The ladder has three rungs, walked top to bottom until one produces an
//! estimate:
//!
//! 1. **The requested estimate.** For random sampling this already runs
//!    through the resilient sweep below, so a worker panic quarantines one
//!    source and retries it (bounded by
//!    [`DegradationPolicy::max_retries`], with linear backoff) instead of
//!    failing the query; when the retries succeed the result is
//!    bit-identical to a fault-free run, because per-source contributions
//!    are buffered and only published after a source's BFS completes.
//! 2. **Reduced-rate sampling** on the prepared working graph at
//!    [`DegradationPolicy::fallback_rate`]. When rung 1 was itself a
//!    sampling run, the fallback sources are a *prefix* of rung 1's sorted
//!    source set, so every per-vertex value is dominated by the fault-free
//!    value; otherwise a fresh seeded draw is used (still a sound lower
//!    bound on exact farness).
//! 3. **Already-accumulated partial lower bounds.** The trivial
//!    zero-coverage estimate: every raw value is `0`, every lower bound
//!    `n − 1`. Sound on a connected graph, and the honest answer when
//!    nothing else ran to completion.
//!
//! Hard errors — empty graph, disconnected graph, a sampling spec that
//! resolves to zero sources — propagate immediately: no rung can answer
//! those. Soft errors (worker panics, memory denial, deadline expiry on
//! all-or-nothing computations) step down one rung.
//!
//! The ladder reuses the [`PreparedGraph`] artifact: no re-reduction, no
//! re-decomposition. It is armed via
//! [`ExecutionContext::with_degradation`] and run through
//! [`run_degraded`]; the CLI exposes it as `--degrade`.

use crate::config::{Method, SampleSize};
use crate::engine::{zero_coverage_estimate, ExecutionContext, PreparedGraph};
use crate::sampling::draw_sources;
use crate::{CentralityError, FarnessEstimate};
use brics_graph::telemetry::{admit_memory_rec, record_outcome, timed, Counter, Recorder};
use brics_graph::traversal::{par_bfs_sweep, KernelConfig, OnPanic};
use brics_graph::{CsrGraph, NodeId, RunControl, RunOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Tunables for the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradationPolicy {
    /// How many times a quarantined source (or a panicked prepare stage) is
    /// retried before the run gives up on it.
    pub max_retries: u32,
    /// Base sleep between retry rounds; round `i` sleeps `i × backoff`.
    pub backoff: Duration,
    /// Sampling rate (fraction of `n`) used by the fallback rung.
    pub fallback_rate: f64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self { max_retries: 2, backoff: Duration::from_millis(1), fallback_rate: 0.1 }
    }
}

impl DegradationPolicy {
    /// Sets the retry bound for quarantined sources.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the base backoff between retry rounds.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the fallback rung's sampling rate, clamped to `(0, 1]`.
    pub fn with_fallback_rate(mut self, rate: f64) -> Self {
        self.fallback_rate = if rate.is_finite() { rate.clamp(f64::MIN_POSITIVE, 1.0) } else { 0.1 };
        self
    }

    /// The fallback rung's source count on an `n`-vertex graph: at least
    /// one, at most `n`.
    pub fn fallback_k(&self, n: usize) -> usize {
        ((n as f64 * self.fallback_rate).ceil() as usize).clamp(1, n.max(1))
    }
}

/// What [`run_degraded`] should try to answer at rung 1.
#[derive(Clone, Debug, PartialEq)]
pub enum DegradedRequest {
    /// Exact farness of every vertex (all-or-nothing at rung 1).
    Exact,
    /// One of the estimation methods.
    Estimate(Method),
}

impl DegradedRequest {
    fn label(&self) -> String {
        match self {
            DegradedRequest::Exact => "exact".to_string(),
            DegradedRequest::Estimate(m) => m.name().to_string(),
        }
    }
}

/// A ladder answer: the estimate plus the bookkeeping the run report and
/// the CLI exit code are stamped from.
#[derive(Clone, Debug)]
pub struct DegradedEstimate {
    /// The answering estimate (original-id order).
    pub estimate: FarnessEstimate,
    /// Name of the rung that produced [`DegradedEstimate::estimate`]:
    /// the requested method's name, `"sampling@<rate>"`, or
    /// `"partial-lower-bounds"`.
    pub answered_by: String,
    /// Every rung entered, in order; the last entry answered. Prepare-stage
    /// fallbacks (`"reduce:skipped"`, `"bct:skipped"`) are prepended.
    pub path: Vec<String>,
    /// Sources re-attempted after quarantine during the ladder's sweeps.
    pub retries: u64,
    /// Sources permanently quarantined (still panicking after the retry
    /// budget).
    pub quarantined: usize,
    /// Whether the answer is weaker than the request: a lower rung
    /// answered, sources stayed quarantined, or the prepare stage fell
    /// back. A fully recovered run (retries that succeeded) is *not*
    /// degraded — it is bit-identical to the fault-free run.
    pub degraded: bool,
}

/// Outcome of one resilient sweep (crate-internal plumbing).
pub(crate) struct ResilientRun {
    pub(crate) estimate: FarnessEstimate,
    pub(crate) retries: u64,
    pub(crate) quarantined: usize,
}

/// Quarantine-and-retry accumulation sweep over an explicit source set.
///
/// Runs the sweep with [`OnPanic::Quarantine`], retries quarantined
/// sources up to `policy.max_retries` times with linear backoff, and gives
/// up on the stragglers by merging [`RunOutcome::Degraded`] into the
/// outcome. The accumulator only ever holds contributions of *completed*
/// sources, so retried sources publish exactly once and a fully recovered
/// sweep is bit-identical to a fault-free one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resilient_sources_query<R: Recorder>(
    g: &CsrGraph,
    sources: &[NodeId],
    admit_bytes: u64,
    policy: &DegradationPolicy,
    ctl: &RunControl,
    kcfg: &KernelConfig,
    rec: &R,
) -> Result<ResilientRun, CentralityError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CentralityError::EmptyGraph);
    }
    if sources.is_empty() {
        return Err(CentralityError::NoSamples);
    }
    admit_memory_rec(ctl, admit_bytes, rec)?;
    let start = Instant::now();
    let mut acc = vec![0u64; n];
    let mut sweep = |srcs: &[NodeId]| {
        timed(rec, "sampling.bfs", || {
            par_bfs_sweep(g, srcs, Some(&mut acc), ctl, kcfg, OnPanic::Quarantine, rec)
        })
    };
    let first = sweep(sources)?;
    let mut rows = first.per_source;
    let mut outcome = first.outcome;
    let mut failed = first.quarantined;
    let mut retries = 0u64;
    let mut quarantined = 0usize;
    let mut round = 0u32;
    while !failed.is_empty() {
        if outcome.is_interrupted() || round >= policy.max_retries {
            // Give up on the stragglers; the answer is sound without them,
            // just weaker.
            quarantined = failed.len();
            if rec.enabled() {
                rec.add(Counter::SourcesQuarantined, failed.len() as u64);
            }
            outcome = outcome.merge(RunOutcome::Degraded);
            break;
        }
        round += 1;
        retries += failed.len() as u64;
        if rec.enabled() {
            rec.add(Counter::FaultRetries, failed.len() as u64);
        }
        if !policy.backoff.is_zero() {
            std::thread::sleep(policy.backoff * round);
        }
        let subset: Vec<NodeId> = failed.iter().map(|&i| sources[i]).collect();
        let run = sweep(&subset)?;
        for (&i, row) in failed.iter().zip(run.per_source) {
            rows[i] = row;
        }
        outcome = outcome.merge(run.outcome);
        failed = run.quarantined.iter().map(|&j| failed[j]).collect();
    }
    record_outcome(rec, outcome, "resilient sampling sweep");
    if rows.iter().flatten().any(|&(reached, _)| reached != n) {
        let comps = brics_graph::connectivity::connected_components(g).count();
        return Err(CentralityError::Disconnected { components: comps });
    }
    let estimate = crate::engine::assemble_flat(n, acc, sources, &rows, 0, start, outcome);
    Ok(ResilientRun { estimate, retries, quarantined })
}

/// Whether no ladder rung can answer after this error.
fn is_hard(e: &CentralityError) -> bool {
    matches!(
        e,
        CentralityError::EmptyGraph
            | CentralityError::Disconnected { .. }
            | CentralityError::NoSamples
    )
}

/// Builds the full-coverage estimate the exact query degenerates to.
fn exact_estimate(raw: Vec<u64>, start: Instant) -> FarnessEstimate {
    let n = raw.len();
    let scaled: Vec<f64> = raw.iter().map(|&x| x as f64).collect();
    FarnessEstimate::new(
        raw,
        scaled,
        vec![true; n],
        vec![n.saturating_sub(1) as u32; n],
        n,
        start.elapsed(),
        RunOutcome::Complete,
    )
}

/// Runs a query through the degradation ladder against a prepared
/// artifact. See the module docs for the rung semantics.
///
/// The policy comes from [`ExecutionContext::with_degradation`];
/// [`DegradationPolicy::default`] is used when none is armed.
pub fn run_degraded<R: Recorder>(
    p: &PreparedGraph<'_>,
    request: &DegradedRequest,
    sample: SampleSize,
    seed: u64,
    ctx: &ExecutionContext<'_, R>,
) -> Result<DegradedEstimate, CentralityError> {
    let policy = ctx.degradation().copied().unwrap_or_default();
    let rec = ctx.recorder();
    let n = p.original().num_nodes();
    if n == 0 {
        return Err(CentralityError::EmptyGraph);
    }
    let start = Instant::now();
    let mut path: Vec<String> = p.prepare_degradation().to_vec();
    let mut degraded = !path.is_empty();
    let mut seen = RunOutcome::Complete;

    // ---- Rung 1: the requested estimate --------------------------------
    let rung1_label = request.label();
    path.push(rung1_label.clone());
    let mut rung1_sources: Option<Vec<NodeId>> = None;
    let rung1 = match request {
        DegradedRequest::Exact => p.exact(ctx).map(|raw| ResilientRun {
            estimate: exact_estimate(raw, start),
            retries: 0,
            quarantined: 0,
        }),
        DegradedRequest::Estimate(Method::RandomSampling) => {
            let k = sample.resolve(n);
            if k == 0 {
                return Err(CentralityError::NoSamples);
            }
            let srcs = draw_sources(n, k, &mut StdRng::seed_from_u64(seed));
            let r = p.resilient_on(&srcs, &policy, ctx);
            rung1_sources = Some(srcs);
            r
        }
        DegradedRequest::Estimate(m) => {
            let est = if m.uses_bcc() {
                p.cumulative(sample, seed, ctx)
            } else {
                p.reduced(sample, seed, ctx)
            };
            est.map(|estimate| ResilientRun { estimate, retries: 0, quarantined: 0 })
        }
    };
    match rung1 {
        Ok(r) => {
            let mut answered_by = rung1_label;
            if r.quarantined > 0 {
                degraded = true;
            }
            if r.estimate.outcome().is_interrupted() {
                // The partial accumulation *is* the bottom rung's artifact:
                // sound lower bounds from whatever finished before the stop.
                answered_by = "partial-lower-bounds".to_string();
                path.push(answered_by.clone());
                degraded = true;
            }
            return Ok(DegradedEstimate {
                estimate: r.estimate,
                answered_by,
                path,
                retries: r.retries,
                quarantined: r.quarantined,
                degraded,
            });
        }
        Err(e) if is_hard(&e) => return Err(e),
        Err(e) => {
            if let CentralityError::Interrupted { outcome } = &e {
                seen = seen.merge(*outcome);
            }
            if rec.enabled() {
                rec.event("degrade", &format!("rung 1 failed ({e}); falling back to sampling"));
            }
        }
    }

    // ---- Rung 2: reduced-rate sampling on the working graph ------------
    degraded = true;
    let rung2_label = format!("sampling@{}", policy.fallback_rate);
    path.push(rung2_label.clone());
    let k2 = policy.fallback_k(n);
    let srcs2: Vec<NodeId> = match rung1_sources {
        // Prefix of the rung-1 draw: every per-vertex sum is dominated by
        // the fault-free run's value.
        Some(s1) if !s1.is_empty() => s1[..k2.min(s1.len())].to_vec(),
        _ => draw_sources(n, k2, &mut StdRng::seed_from_u64(seed.rotate_left(17) ^ 0x9e37_79b9)),
    };
    match p.resilient_on(&srcs2, &policy, ctx) {
        Ok(mut r) => {
            // A lower rung answered: the result is degraded relative to the
            // request even when the sweep itself ran clean.
            r.estimate.merge_outcome(RunOutcome::Degraded);
            let mut answered_by = rung2_label;
            if r.estimate.outcome().is_interrupted() && r.estimate.num_sources() == 0 {
                answered_by = "partial-lower-bounds".to_string();
                path.push(answered_by.clone());
            }
            Ok(DegradedEstimate {
                estimate: r.estimate,
                answered_by,
                path,
                retries: r.retries,
                quarantined: r.quarantined,
                degraded,
            })
        }
        Err(e) if is_hard(&e) => Err(e),
        Err(e) => {
            if let CentralityError::Interrupted { outcome } = &e {
                seen = seen.merge(*outcome);
            }
            if rec.enabled() {
                rec.event("degrade", &format!("rung 2 failed ({e}); answering with zero coverage"));
            }
            // ---- Rung 3: the trivial sound answer ----------------------
            let answered_by = "partial-lower-bounds".to_string();
            path.push(answered_by.clone());
            let outcome = RunOutcome::Degraded.merge(seen);
            Ok(DegradedEstimate {
                estimate: zero_coverage_estimate(n, start, outcome),
                answered_by,
                path,
                retries: 0,
                quarantined: 0,
                degraded,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PrepareConfig;
    use crate::exact_farness;
    use brics_graph::generators::{cycle_graph, gnm_random_connected};
    use brics_graph::FaultPlan;

    fn req_random() -> DegradedRequest {
        DegradedRequest::Estimate(Method::RandomSampling)
    }

    fn no_bcc() -> PrepareConfig {
        PrepareConfig { use_bcc: false, ..Default::default() }
    }

    fn faulted_ctx(spec: &str) -> ExecutionContext<'static> {
        ExecutionContext::new()
            .with_control(RunControl::new().with_fault_plan(FaultPlan::parse(spec).unwrap()))
            .with_degradation(DegradationPolicy::default().with_backoff(Duration::ZERO))
    }

    #[test]
    fn faultless_ladder_is_bit_identical_to_direct_query() {
        let g = gnm_random_connected(80, 140, 7);
        let ctx = ExecutionContext::new();
        let p = PreparedGraph::build_with(&g, no_bcc(), &ctx).unwrap();
        let direct = p.sample(SampleSize::Count(12), 5, &ctx).unwrap();
        let d = run_degraded(&p, &req_random(), SampleSize::Count(12), 5, &ctx).unwrap();
        assert_eq!(d.estimate.raw(), direct.raw());
        assert_eq!(d.estimate.scaled(), direct.scaled());
        assert!(!d.degraded);
        assert_eq!(d.answered_by, "random");
        assert_eq!(d.path, ["random"]);
        assert_eq!((d.retries, d.quarantined), (0, 0));
    }

    #[test]
    fn quarantined_source_retries_to_bit_identical_result() {
        let g = gnm_random_connected(60, 100, 3);
        let clean_ctx = ExecutionContext::new();
        let p = PreparedGraph::build_with(&g, no_bcc(), &clean_ctx).unwrap();
        let clean = run_degraded(&p, &req_random(), SampleSize::Count(10), 5, &clean_ctx).unwrap();
        let ctx = faulted_ctx("bfs.source=panic@nth:1");
        let d = run_degraded(&p, &req_random(), SampleSize::Count(10), 5, &ctx).unwrap();
        assert!(d.retries >= 1);
        assert_eq!(d.quarantined, 0);
        assert!(!d.degraded);
        assert!(d.estimate.outcome().is_complete());
        assert_eq!(d.estimate.raw(), clean.estimate.raw());
        assert_eq!(d.estimate.scaled(), clean.estimate.scaled());
    }

    #[test]
    fn unrecoverable_source_is_quarantined_and_degrades() {
        let g = cycle_graph(40);
        let p = PreparedGraph::build_with(&g, no_bcc(), &ExecutionContext::new()).unwrap();
        let victim = draw_sources(40, 6, &mut StdRng::seed_from_u64(5))[0];
        let ctx = faulted_ctx(&format!("bfs.source=panic@on:{victim}"));
        let d = run_degraded(&p, &req_random(), SampleSize::Count(6), 5, &ctx).unwrap();
        assert_eq!(d.quarantined, 1);
        assert!(d.degraded);
        assert_eq!(d.retries, u64::from(DegradationPolicy::default().max_retries));
        assert_eq!(d.estimate.outcome(), RunOutcome::Degraded);
        assert!(!d.estimate.is_sampled(victim));
        let exact = exact_farness(&g).unwrap();
        for (lb, ex) in d.estimate.raw().iter().zip(&exact) {
            assert!(lb <= ex);
        }
    }

    #[test]
    fn memory_denial_falls_back_to_reduced_rate_sampling() {
        let g = gnm_random_connected(100, 180, 9);
        let clean_ctx = ExecutionContext::new();
        let p = PreparedGraph::build_with(&g, no_bcc(), &clean_ctx).unwrap();
        let clean = p.sample(SampleSize::Count(40), 11, &clean_ctx).unwrap();
        let ctx = faulted_ctx("alloc.admit=mem-deny");
        let d = run_degraded(&p, &req_random(), SampleSize::Count(40), 11, &ctx).unwrap();
        assert!(d.degraded);
        assert_eq!(d.answered_by, "sampling@0.1");
        assert_eq!(d.path, ["random", "sampling@0.1"]);
        assert_eq!(d.estimate.outcome(), RunOutcome::Degraded);
        assert!(d.estimate.num_sources() > 0);
        // Fallback sources are a prefix of the rung-1 draw, so every
        // per-vertex value is dominated by the fault-free run's.
        for (a, b) in d.estimate.raw().iter().zip(clean.raw()) {
            assert!(a <= b);
        }
    }

    #[test]
    fn expired_deadline_walks_down_to_partial_lower_bounds() {
        let g = cycle_graph(30);
        let p = PreparedGraph::build_with(&g, no_bcc(), &ExecutionContext::new()).unwrap();
        let ctx = ExecutionContext::new()
            .with_control(RunControl::new().with_timeout(Duration::ZERO))
            .with_degradation(DegradationPolicy::default());
        let d = run_degraded(&p, &DegradedRequest::Exact, SampleSize::Count(5), 1, &ctx).unwrap();
        assert_eq!(d.answered_by, "partial-lower-bounds");
        assert_eq!(d.path, ["exact", "sampling@0.1", "partial-lower-bounds"]);
        assert!(d.estimate.outcome().is_interrupted());
        assert!(d.estimate.lower_bounds().iter().all(|&b| b == 29));
    }

    #[test]
    fn mid_run_deadline_fault_answers_with_accumulated_partials() {
        let g = cycle_graph(50);
        let p = PreparedGraph::build_with(&g, no_bcc(), &ExecutionContext::new()).unwrap();
        let ctx = faulted_ctx("bfs.source=deadline-expire@nth:3");
        let d = run_degraded(&p, &req_random(), SampleSize::Count(10), 2, &ctx).unwrap();
        assert_eq!(d.answered_by, "partial-lower-bounds");
        assert_eq!(d.path, ["random", "partial-lower-bounds"]);
        assert!(d.estimate.outcome().is_interrupted());
        let exact = exact_farness(&g).unwrap();
        for (lb, ex) in d.estimate.raw().iter().zip(&exact) {
            assert!(lb <= ex);
        }
    }

    #[test]
    fn reduce_panic_degrades_prepare_to_unreduced_artifact() {
        let g = gnm_random_connected(50, 80, 2);
        let ctx = faulted_ctx("reduce.rule=panic@every:1");
        let p = PreparedGraph::build_with(&g, no_bcc(), &ctx).unwrap();
        assert_eq!(p.prepare_degradation(), ["reduce:skipped"]);
        assert_eq!(p.num_surviving(), g.num_nodes());
        let d = run_degraded(&p, &req_random(), SampleSize::Count(8), 1, &ctx).unwrap();
        assert!(d.degraded);
        assert_eq!(d.path, ["reduce:skipped", "random"]);
        assert_eq!(d.answered_by, "random");
    }

    #[test]
    fn reduce_panic_without_policy_is_a_plain_internal_error() {
        let g = gnm_random_connected(50, 80, 2);
        let ctx = ExecutionContext::new().with_control(
            RunControl::new()
                .with_fault_plan(FaultPlan::parse("reduce.rule=panic@every:1").unwrap()),
        );
        let e = PreparedGraph::build_with(&g, no_bcc(), &ctx).unwrap_err();
        assert!(matches!(e, CentralityError::Internal { .. }));
    }

    #[test]
    fn bct_build_panic_skips_bcc_and_cumulative_falls_through() {
        let g = gnm_random_connected(70, 120, 4);
        let ctx = faulted_ctx("bct.build=panic@every:1");
        let p = PreparedGraph::build_with(&g, PrepareConfig::default(), &ctx).unwrap();
        assert!(!p.has_bcc());
        assert_eq!(p.prepare_degradation(), ["bct:skipped"]);
        let d = run_degraded(
            &p,
            &DegradedRequest::Estimate(Method::Cumulative),
            SampleSize::Count(10),
            3,
            &ctx,
        )
        .unwrap();
        assert!(d.degraded);
        assert_eq!(d.answered_by, "sampling@0.1");
        assert_eq!(d.path, ["bct:skipped", "cumulative", "sampling@0.1"]);
        let exact = exact_farness(&g).unwrap();
        for (lb, ex) in d.estimate.raw().iter().zip(&exact) {
            assert!(lb <= ex);
        }
    }
}
