//! Random-sampling baseline (paper Algorithm 1).
//!
//! Picks `k` sources uniformly at random, runs one BFS per source in
//! parallel, and accumulates `farness[u] += d(s, u)` — `O(n)` memory rather
//! than `O(n·k)`, the space optimisation §II-A describes. Sources receive
//! their exact farness (their BFS reaches everything); everyone else keeps
//! the partial sum over the `k` sources.

use crate::budget::accumulate_run_bytes;
use crate::config::SampleSize;
use crate::engine::{assemble_flat, ExecutionContext};
use crate::{CentralityError, FarnessEstimate};
use brics_graph::telemetry::{admit_memory_rec, record_outcome, record_panic, timed, Recorder};
use brics_graph::traversal::{par_bfs_sweep, KernelConfig, OnPanic};
use brics_graph::{CsrGraph, NodeId, RunControl};
use rand::rngs::StdRng;
use rand::seq::index::sample as index_sample;
use rand::SeedableRng;
use std::time::Instant;

/// Draws `k` distinct vertices uniformly at random.
pub(crate) fn draw_sources(n: usize, k: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut s: Vec<NodeId> = index_sample(rng, n, k.min(n))
        .into_iter()
        .map(|i| i as NodeId)
        .collect();
    s.sort_unstable();
    s
}

/// Estimates farness by uniform random sampling (paper Algorithm 1).
pub fn random_sampling(
    g: &CsrGraph,
    sample: SampleSize,
    seed: u64,
) -> Result<FarnessEstimate, CentralityError> {
    random_sampling_in(g, sample, seed, &ExecutionContext::new())
}

/// [`random_sampling`] under an [`ExecutionContext`] (limits, kernel
/// choice, telemetry).
///
/// The control is consulted before each BFS source. On deadline or
/// cancellation the returned estimate is *partial*: `num_sources`, the
/// scaling factor, and per-vertex `coverage` all reflect only the sources
/// that completed, so [`FarnessEstimate::lower_bounds`] stays sound. Every
/// kernel produces identical distances and the recorder only observes, so
/// the estimate is bit-identical across contexts with the same control.
pub fn random_sampling_in<R: Recorder>(
    g: &CsrGraph,
    sample: SampleSize,
    seed: u64,
    ctx: &ExecutionContext<'_, R>,
) -> Result<FarnessEstimate, CentralityError> {
    let admit = accumulate_run_bytes(g.num_nodes(), ctx.thread_count());
    timed(ctx.recorder(), "estimate", || {
        sampling_query(g, sample, seed, admit, ctx.control(), ctx.kernel(), ctx.recorder())
    })
}

/// The query stage shared by [`random_sampling_in`] and
/// [`crate::engine::PreparedGraph::sample`]. Random sampling needs no
/// prepared structure — it runs directly on the (working) graph.
pub(crate) fn sampling_query<R: Recorder>(
    g: &CsrGraph,
    sample: SampleSize,
    seed: u64,
    admit_bytes: u64,
    ctl: &RunControl,
    kcfg: &KernelConfig,
    rec: &R,
) -> Result<FarnessEstimate, CentralityError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CentralityError::EmptyGraph);
    }
    let k = sample.resolve(n);
    if k == 0 {
        return Err(CentralityError::NoSamples);
    }
    admit_memory_rec(ctl, admit_bytes, rec)?;
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let sources = draw_sources(n, k, &mut rng);

    let mut acc = vec![0u64; n];
    let run = timed(rec, "sampling.bfs", || {
        par_bfs_sweep(g, &sources, Some(&mut acc), ctl, kcfg, OnPanic::Fail, rec)
    })
    .map_err(|p| {
        record_panic(rec, &p.detail);
        p
    })?;
    record_outcome(rec, run.outcome, "random-sampling BFS sweep");
    if run.per_source.iter().flatten().any(|&(reached, _)| reached != n) {
        let comps = brics_graph::connectivity::connected_components(g).count();
        return Err(CentralityError::Disconnected { components: comps });
    }
    // Only completed sources are marked sampled / get their exact farness;
    // skipped sources contributed nothing to `acc` (per-source granularity).
    // No reductions ran, so the structural-offset de-bias term is zero.
    Ok(assemble_flat(n, acc, &sources, &run.per_source, 0, start, run.outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_farness;
    use brics_graph::generators::{cycle_graph, gnm_random_connected, path_graph};

    fn ctl_ctx(ctl: RunControl) -> ExecutionContext<'static> {
        ExecutionContext::new().with_control(ctl)
    }

    #[test]
    fn full_sampling_is_exact() {
        let g = gnm_random_connected(60, 90, 4);
        let est = random_sampling(&g, SampleSize::Fraction(1.0), 9).unwrap();
        let exact = exact_farness(&g).unwrap();
        assert_eq!(est.raw(), exact.as_slice());
        assert!(est.sampled_mask().iter().all(|&s| s));
    }

    #[test]
    fn sources_get_exact_values() {
        let g = path_graph(30);
        let est = random_sampling(&g, SampleSize::Count(5), 3).unwrap();
        let exact = exact_farness(&g).unwrap();
        for v in 0..30u32 {
            if est.is_sampled(v) {
                assert_eq!(est.raw()[v as usize], exact[v as usize], "source {v}");
            } else {
                assert!(est.raw()[v as usize] <= exact[v as usize], "partial sum bound {v}");
            }
        }
        assert_eq!(est.num_sources(), 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = cycle_graph(40);
        let a = random_sampling(&g, SampleSize::Count(8), 5).unwrap();
        let b = random_sampling(&g, SampleSize::Count(8), 5).unwrap();
        assert_eq!(a.raw(), b.raw());
        let c = random_sampling(&g, SampleSize::Count(8), 6).unwrap();
        assert_eq!(a.raw().len(), c.raw().len());
    }

    #[test]
    fn scaled_view_expands_partials() {
        let g = cycle_graph(9); // farness 20 everywhere
        let est = random_sampling(&g, SampleSize::Count(3), 1).unwrap();
        for v in 0..9u32 {
            if !est.is_sampled(v) {
                let expect = est.raw()[v as usize] as f64 * 8.0 / 3.0;
                assert!((est.scaled()[v as usize] - expect).abs() < 1e-9);
            } else {
                assert_eq!(est.scaled()[v as usize], est.raw()[v as usize] as f64);
            }
        }
    }

    #[test]
    fn disconnected_rejected() {
        let g = brics_graph::GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        let r = random_sampling(&g, SampleSize::Fraction(1.0), 0);
        assert!(matches!(r, Err(CentralityError::Disconnected { components: 2 })));
    }

    #[test]
    fn ctl_expired_deadline_yields_empty_partial() {
        let g = cycle_graph(30);
        let ctx = ctl_ctx(RunControl::new().with_timeout(std::time::Duration::ZERO));
        let est = random_sampling_in(&g, SampleSize::Count(10), 7, &ctx).unwrap();
        assert!(est.is_partial());
        assert_eq!(est.outcome(), brics_graph::RunOutcome::Deadline);
        assert_eq!(est.num_sources(), 0);
        assert!(est.raw().iter().all(|&x| x == 0));
        assert!(est.coverage().iter().all(|&c| c == 0));
        // Zero coverage ⇒ lower bound is (n-1) per vertex — trivially sound.
        assert!(est.lower_bounds().iter().all(|&b| b == 29));
    }

    #[test]
    fn ctl_memory_budget_rejects_up_front() {
        let g = cycle_graph(1000);
        let ctx = ctl_ctx(RunControl::new().with_memory_budget_bytes(16));
        let err = random_sampling_in(&g, SampleSize::Count(4), 0, &ctx).unwrap_err();
        assert!(matches!(err, CentralityError::BudgetExceeded { budget_bytes: 16, .. }));
    }

    #[test]
    fn ctl_injected_panic_becomes_internal_error() {
        let g = cycle_graph(30);
        // Seed 3 / Count(5): pick any vertex guaranteed to be a source by
        // injecting on every possible source in turn until one trips.
        let est = random_sampling(&g, SampleSize::Count(5), 3).unwrap();
        let victim = (0..30u32).find(|&v| est.is_sampled(v)).unwrap();
        let ctx = ctl_ctx(RunControl::new().with_injected_panic(victim));
        let err = random_sampling_in(&g, SampleSize::Count(5), 3, &ctx).unwrap_err();
        match err {
            CentralityError::Internal { detail } => {
                assert!(detail.contains("injected worker panic"), "got: {detail}")
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn ctl_unbounded_matches_plain() {
        let g = gnm_random_connected(40, 70, 2);
        let plain = random_sampling(&g, SampleSize::Count(6), 11).unwrap();
        let ctl = random_sampling_in(&g, SampleSize::Count(6), 11, &ExecutionContext::new())
            .unwrap();
        assert_eq!(plain.raw(), ctl.raw());
        assert_eq!(plain.num_sources(), ctl.num_sources());
        assert!(!ctl.is_partial());
    }

    #[test]
    fn draw_sources_distinct_sorted() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = draw_sources(50, 20, &mut rng);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d, s);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
