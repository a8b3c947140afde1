//! Exact farness: one BFS per vertex, parallel over sources.
//!
//! Ground truth for every quality measurement in the paper's evaluation
//! (the `farness_actual(v)` of §IV-C1). `O(n·(n+m))` — use on graphs small
//! enough that this is affordable; the estimators exist for everything else.

use crate::budget::exact_run_bytes;
use crate::engine::ExecutionContext;
use crate::CentralityError;
use brics_graph::telemetry::{admit_memory_rec, record_outcome, record_panic, timed, Recorder};
use brics_graph::traversal::{par_bfs_sweep, KernelConfig, OnPanic};
use brics_graph::{CsrGraph, NodeId, RunControl};

/// Computes the exact farness of every vertex.
///
/// Returns [`CentralityError::Disconnected`] if any BFS fails to reach the
/// whole graph, and [`CentralityError::EmptyGraph`] for an empty input.
pub fn exact_farness(g: &CsrGraph) -> Result<Vec<u64>, CentralityError> {
    exact_farness_in(g, &ExecutionContext::new())
}

/// [`exact_farness`] under an [`ExecutionContext`] (limits, kernel choice,
/// telemetry).
///
/// Exact farness is all-or-nothing — a subset of sources is an *estimate*,
/// not ground truth — so deadline/cancellation surfaces as
/// [`CentralityError::Interrupted`] rather than a partial result. Use the
/// sampling estimators when partial answers are acceptable. The result is
/// bit-identical across kernels and recorders; those only affect wall time
/// and observability.
pub fn exact_farness_in<R: Recorder>(
    g: &CsrGraph,
    ctx: &ExecutionContext<'_, R>,
) -> Result<Vec<u64>, CentralityError> {
    let admit = exact_run_bytes(g.num_nodes(), ctx.thread_count());
    timed(ctx.recorder(), "estimate", || {
        exact_query(g, admit, ctx.control(), ctx.kernel(), ctx.recorder())
    })
}

/// The query stage shared by [`exact_farness_in`] and
/// [`crate::engine::PreparedGraph::exact`] (which supplies its precomputed
/// admission figure).
pub(crate) fn exact_query<R: Recorder>(
    g: &CsrGraph,
    admit_bytes: u64,
    ctl: &RunControl,
    kcfg: &KernelConfig,
    rec: &R,
) -> Result<Vec<u64>, CentralityError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(CentralityError::EmptyGraph);
    }
    admit_memory_rec(ctl, admit_bytes, rec)?;
    let sources: Vec<NodeId> = (0..n as NodeId).collect();
    let run = timed(rec, "exact.bfs", || {
        par_bfs_sweep(g, &sources, None, ctl, kcfg, OnPanic::Fail, rec)
    })
    .map_err(|p| {
        record_panic(rec, &p.detail);
        p
    })?;
    record_outcome(rec, run.outcome, "exact farness sweep");
    if !run.outcome.is_complete() {
        return Err(CentralityError::Interrupted { outcome: run.outcome });
    }
    let mut farness = Vec::with_capacity(n);
    for row in run.per_source {
        match row {
            Some((reached, sum)) if reached == n => farness.push(sum),
            _ => {
                let comps = brics_graph::connectivity::connected_components(g).count();
                return Err(CentralityError::Disconnected { components: comps });
            }
        }
    }
    Ok(farness)
}

/// Exact closeness: `1 / farness` (`0.0` where farness is 0, i.e. `n = 1`).
pub fn exact_closeness(g: &CsrGraph) -> Result<Vec<f64>, CentralityError> {
    Ok(exact_farness(g)?
        .into_iter()
        .map(|f| if f == 0 { 0.0 } else { 1.0 / f as f64 })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use brics_graph::generators::{complete_graph, cycle_graph, path_graph, star_graph};
    use brics_graph::GraphBuilder;

    #[test]
    fn path_farness() {
        // Path 0-1-2-3: farness(0) = 1+2+3 = 6, farness(1) = 1+1+2 = 4.
        let f = exact_farness(&path_graph(4)).unwrap();
        assert_eq!(f, vec![6, 4, 4, 6]);
    }

    #[test]
    fn cycle_farness_uniform() {
        // C6: distances 1,2,3,2,1 from anywhere → farness 9 for all.
        let f = exact_farness(&cycle_graph(6)).unwrap();
        assert_eq!(f, vec![9; 6]);
    }

    #[test]
    fn star_farness() {
        // K_{1,4}: centre 4, leaves 1 + 3·2 = 7.
        let f = exact_farness(&star_graph(5)).unwrap();
        assert_eq!(f, vec![4, 7, 7, 7, 7]);
    }

    #[test]
    fn complete_graph_farness() {
        let f = exact_farness(&complete_graph(7)).unwrap();
        assert_eq!(f, vec![6; 7]);
    }

    #[test]
    fn disconnected_rejected() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            exact_farness(&g),
            Err(CentralityError::Disconnected { components: 2 })
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(exact_farness(&CsrGraph::empty()), Err(CentralityError::EmptyGraph));
    }

    #[test]
    fn single_vertex() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(exact_farness(&g).unwrap(), vec![0]);
        assert_eq!(exact_closeness(&g).unwrap(), vec![0.0]);
    }

    #[test]
    fn ctl_deadline_is_an_error_not_a_partial_result() {
        let g = cycle_graph(20);
        let ctx = ExecutionContext::new()
            .with_control(RunControl::new().with_timeout(std::time::Duration::ZERO));
        let err = exact_farness_in(&g, &ctx).unwrap_err();
        assert!(matches!(
            err,
            CentralityError::Interrupted { outcome: brics_graph::RunOutcome::Deadline }
        ));
    }

    #[test]
    fn ctl_budget_and_panic_paths() {
        let g = cycle_graph(50);
        let ctx = ExecutionContext::new()
            .with_control(RunControl::new().with_memory_budget_bytes(1));
        assert!(matches!(
            exact_farness_in(&g, &ctx).unwrap_err(),
            CentralityError::BudgetExceeded { .. }
        ));
        let ctx = ExecutionContext::new().with_control(RunControl::new().with_injected_panic(7));
        assert!(matches!(
            exact_farness_in(&g, &ctx).unwrap_err(),
            CentralityError::Internal { .. }
        ));
        // An unbounded context matches the plain entry point.
        assert_eq!(
            exact_farness_in(&g, &ExecutionContext::new()).unwrap(),
            exact_farness(&g).unwrap()
        );
    }

    #[test]
    fn closeness_is_reciprocal() {
        let g = path_graph(4);
        let f = exact_farness(&g).unwrap();
        let c = exact_closeness(&g).unwrap();
        for (fi, ci) in f.iter().zip(&c) {
            assert!((ci - 1.0 / *fi as f64).abs() < 1e-12);
        }
    }
}
