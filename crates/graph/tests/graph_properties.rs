//! Property tests for the graph substrate: builder normalisation, IO
//! round-trips, traversal agreement, and generator invariants.

use brics_graph::generators::{
    barabasi_albert, gnm_random_connected, rmat, ClassParams, GraphClass,
};
use brics_graph::io::{read_edge_list_from, read_mtx_from, write_edge_list_to, write_mtx_to};
use brics_graph::telemetry::NullRecorder;
use brics_graph::traversal::{
    bfs_distances, par_bfs_sweep, DialBfs, HybridBfs, HybridParams, Kernel, KernelConfig,
    OnPanic, ParFrontierBfs, Sweep, WorkerPanic,
};
use brics_graph::{CsrGraph, GraphBuilder, NodeId, RunControl, RunOutcome, INFINITE_DIST};
use proptest::prelude::*;

/// One accumulating BFS sweep that fails on a worker panic.
fn accumulate(
    g: &CsrGraph,
    sources: &[NodeId],
    acc: &mut [u64],
    ctl: &RunControl,
    cfg: &KernelConfig,
) -> Result<Sweep, WorkerPanic> {
    par_bfs_sweep(g, sources, Some(acc), ctl, cfg, OnPanic::Fail, &NullRecorder)
}

/// Arbitrary edge soup over up to 30 vertices — may contain self-loops,
/// duplicates and both orientations.
fn edge_soup() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (1usize..30).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The builder always produces a valid, simple, symmetric CSR.
    #[test]
    fn builder_normalises_any_soup((n, edges) in edge_soup()) {
        let g = GraphBuilder::from_edges(n, &edges);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_nodes(), n);
        // Idempotent: rebuilding from the built edges is identity.
        let again = GraphBuilder::from_edges(n, &g.edges().collect::<Vec<_>>());
        prop_assert_eq!(again, g);
    }

    /// Edge-list IO round-trips exactly.
    #[test]
    fn edge_list_roundtrip((n, edges) in edge_soup()) {
        let g = GraphBuilder::from_edges(n, &edges);
        let mut buf = Vec::new();
        write_edge_list_to(&g, &mut buf).unwrap();
        let g2 = read_edge_list_from(buf.as_slice()).unwrap();
        // Vertex count may shrink (trailing isolated vertices have no edges
        // to record); everything with an edge round-trips.
        prop_assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    /// MatrixMarket IO round-trips exactly (it records the vertex count).
    #[test]
    fn mtx_roundtrip((n, edges) in edge_soup()) {
        let g = GraphBuilder::from_edges(n, &edges);
        let mut buf = Vec::new();
        write_mtx_to(&g, &mut buf).unwrap();
        let g2 = read_mtx_from(buf.as_slice()).unwrap();
        prop_assert_eq!(g2, g);
    }

    /// Dial with unit weights equals plain BFS from every source.
    #[test]
    fn dial_equals_bfs((n, edges) in edge_soup()) {
        let g = GraphBuilder::from_edges(n, &edges);
        let mut dial = DialBfs::new(n);
        for s in 0..n as NodeId {
            dial.run_with(&g, None, s, |_, _| {});
            prop_assert_eq!(&dial.distances()[..n], &bfs_distances(&g, s)[..]);
        }
    }

    /// The direction-optimizing and frontier-parallel kernels agree with
    /// plain BFS — identical distance arrays and `(reached, Σd)` — for
    /// every heuristic preset, on arbitrary (possibly disconnected) soups.
    #[test]
    fn kernels_agree_on_any_soup((n, edges) in edge_soup(), s_raw in 0u32..30) {
        let g = GraphBuilder::from_edges(n, &edges);
        let s = s_raw % n as u32;
        let reference = bfs_distances(&g, s);
        let finite = reference.iter().filter(|&&d| d != INFINITE_DIST);
        let expect = (finite.clone().count(), finite.map(|&d| d as u64).sum::<u64>());
        for params in [
            HybridParams::default(),
            HybridParams::always_top_down(),
            HybridParams::eager_bottom_up(),
        ] {
            let mut hy = HybridBfs::with_params(n, params);
            let got = hy.run_with(&g, s, |_, _| {});
            prop_assert_eq!(&hy.distances()[..n], &reference[..]);
            prop_assert_eq!(got, expect);
            let mut fp = ParFrontierBfs::with_params(n, params);
            let got = fp.run(&g, s);
            prop_assert_eq!(&fp.distances()[..n], &reference[..]);
            prop_assert_eq!(got, expect);
        }
    }

    /// Farness accumulation is bit-identical across every kernel config,
    /// on one thread and inside a 4-thread pool with fewer sources than
    /// threads.
    #[test]
    fn accumulation_invariant_across_kernels(n in 10usize..60, seed in any::<u64>()) {
        let g = gnm_random_connected(n, 2 * n, seed);
        let sources = [0 as NodeId, (n / 2) as NodeId];
        let mut baseline = vec![0u64; n];
        accumulate(
            &g, &sources, &mut baseline, &RunControl::new(),
            &KernelConfig::new(Kernel::TopDown),
        ).unwrap();
        for kernel in [Kernel::Auto, Kernel::Hybrid, Kernel::MsBfs] {
            let cfg = KernelConfig::new(kernel);
            let mut acc = vec![0u64; n];
            accumulate(&g, &sources, &mut acc, &RunControl::new(), &cfg).unwrap();
            prop_assert_eq!(&acc, &baseline);
            let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            let mut acc = vec![0u64; n];
            pool.install(|| accumulate(&g, &sources, &mut acc, &RunControl::new(), &cfg))
                .unwrap();
            prop_assert_eq!(&acc, &baseline);
        }
    }

    /// MS-BFS batching is bit-identical to per-source BFS for any source
    /// multiset — including duplicated sources, ragged final batches
    /// (`sources % 64 != 0`) and multi-batch plans — on both scheduler
    /// placements (serial sweeps in a parallel batch loop, and parallel
    /// sweeps over sequential batches).
    #[test]
    fn msbfs_batches_invariant_for_ragged_multisets(
        n in 10usize..60,
        k in 1usize..150,
        seed in any::<u64>(),
    ) {
        let g = gnm_random_connected(n, 2 * n, seed);
        let sources: Vec<NodeId> =
            (0..k).map(|i| ((seed as usize + i * 7) % n) as NodeId).collect();
        let mut baseline = vec![0u64; n];
        let base = accumulate(
            &g, &sources, &mut baseline, &RunControl::new(),
            &KernelConfig::new(Kernel::TopDown),
        ).unwrap();
        let cfg = KernelConfig::new(Kernel::MsBfs);
        for threads in [1usize, 4] {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut acc = vec![0u64; n];
            let run = pool.install(|| {
                accumulate(&g, &sources, &mut acc, &RunControl::new(), &cfg)
            }).unwrap();
            prop_assert_eq!(&acc, &baseline);
            prop_assert_eq!(&run.per_source, &base.per_source);
        }
    }

    /// An already-expired deadline leaves the accumulator untouched and
    /// reports every source as skipped — the same partial-soundness
    /// contract for every kernel on one thread and on four.
    #[test]
    fn expired_deadline_sound_across_kernels(n in 10usize..50, seed in any::<u64>()) {
        let g = gnm_random_connected(n, 2 * n, seed);
        let sources = [0 as NodeId, 1 as NodeId];
        let ctl = RunControl::new().with_timeout(std::time::Duration::ZERO);
        for kernel in [Kernel::TopDown, Kernel::Auto, Kernel::Hybrid, Kernel::MsBfs] {
            for threads in [1usize, 4] {
                let pool =
                    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let mut acc = vec![0u64; n];
                let run = pool.install(|| {
                    accumulate(&g, &sources, &mut acc, &ctl, &KernelConfig::new(kernel))
                }).unwrap();
                prop_assert_eq!(run.outcome, RunOutcome::Deadline);
                prop_assert!(run.per_source.iter().all(Option::is_none));
                prop_assert!(acc.iter().all(|&x| x == 0));
            }
        }
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |d(s,u) − d(s,v)| ≤ 1 for every edge {u,v} in the same component.
    #[test]
    fn bfs_edge_lipschitz((n, edges) in edge_soup(), s_raw in 0u32..30) {
        let g = GraphBuilder::from_edges(n, &edges);
        let s = s_raw % n as u32;
        let d = bfs_distances(&g, s);
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != brics_graph::INFINITE_DIST {
                prop_assert!(dv != brics_graph::INFINITE_DIST);
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({},{})", u, v);
            }
        }
    }

    /// Class generators always produce connected simple graphs near the
    /// target size, for arbitrary seeds.
    #[test]
    fn class_generators_robust(seed in any::<u64>(), which in 0usize..4, n in 64usize..600) {
        let class = GraphClass::ALL[which];
        let g = class.generate(ClassParams::new(n, seed));
        prop_assert!(g.validate().is_ok());
        prop_assert!(brics_graph::connectivity::is_connected(&g));
        prop_assert!(g.num_nodes() >= 54, "{} produced only {} nodes for target {}", class.name(), g.num_nodes(), n);
    }

    /// Model generators respect their structural contracts.
    #[test]
    fn model_generators_robust(seed in any::<u64>()) {
        let ba = barabasi_albert(120, 3, seed);
        prop_assert!(ba.nodes().all(|v| ba.degree(v) >= 3));
        prop_assert!(brics_graph::connectivity::is_connected(&ba));

        let gnm = gnm_random_connected(60, 100, seed);
        prop_assert!(brics_graph::connectivity::is_connected(&gnm));
        prop_assert!(gnm.num_edges() <= 100);

        let rm = rmat(8, 600, 0.45, 0.25, 0.15, seed);
        prop_assert!(brics_graph::connectivity::is_connected(&rm));
        prop_assert_eq!(rm.num_nodes(), 256);
    }

    /// Weighted builder: min-weight dedup and arc alignment hold for any
    /// weighted soup.
    #[test]
    fn weighted_builder_sound(
        (n, edges) in edge_soup(),
        ws in proptest::collection::vec(1u32..20, 0..90),
    ) {
        let triples: Vec<(NodeId, NodeId, u32)> = edges
            .iter()
            .zip(ws.iter().cycle())
            .map(|(&(u, v), &w)| (u, v, w))
            .collect();
        let (g, weights) = brics_graph::weighted::build_weighted(n, &triples);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(weights.len(), g.num_arcs());
        for (u, v) in g.edges() {
            let w_uv = brics_graph::weighted::edge_weight(&g, &weights, u, v).unwrap();
            let w_vu = brics_graph::weighted::edge_weight(&g, &weights, v, u).unwrap();
            prop_assert_eq!(w_uv, w_vu, "asymmetric weight on ({},{})", u, v);
            // Must be the minimum of all parallel inputs.
            let min_in = triples
                .iter()
                .filter(|&&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u))
                .map(|&(_, _, w)| w)
                .min()
                .unwrap();
            prop_assert_eq!(w_uv, min_in);
        }
    }
}

#[test]
fn subgraph_extraction_preserves_distances_within_blocks() {
    // Extract a clique from a larger graph: internal distances must match.
    let g = gnm_random_connected(40, 80, 9);
    let verts: Vec<NodeId> = (0..15).collect();
    let sub = brics_graph::InducedSubgraph::extract(&g, &verts);
    for (l, &gl) in sub.local_to_global.iter().enumerate() {
        assert_eq!(sub.to_local(gl), Some(l as NodeId));
    }
}
