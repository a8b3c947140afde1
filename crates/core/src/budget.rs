//! Up-front memory planning for estimation runs.
//!
//! Estimators call [`RunControl::admit_memory`](brics_graph::RunControl::admit_memory)
//! with the figures computed here *before* performing their large
//! allocations, so a run that would blow a configured budget fails fast with
//! [`CentralityError::BudgetExceeded`](crate::CentralityError::BudgetExceeded)
//! instead of getting OOM-killed halfway through. The
//! [`PreparedGraph`](crate::engine::PreparedGraph) artifact precomputes all
//! three figures once into a [`MemoryPlan`](crate::engine::MemoryPlan).
//!
//! The numbers are planning estimates of the dense allocations, not exact
//! accounting: CSR storage of the input graph (already resident when an
//! estimator starts) is excluded. The per-source rows of the parallel BFS
//! sweep are *not* small bookkeeping (an exact sweep has one source per
//! vertex), so the flat plans charge them for `k = n` sources, the most a
//! query can draw. The figures are deliberately *upper bounds* over every
//! kernel a run may pick (`--kernel auto` batches through the bit-parallel
//! engine, whose scratch is the widest), so the tracking allocator's
//! observed per-span peak
//! ([`RunReport::memory`](brics_graph::telemetry::RunReport)) stays at or
//! under `planned_bytes` on a fault-free run — pinned by the
//! `memory_tracking` integration tests.

/// Bytes/vertex of the widest per-thread traversal scratch any BFS kernel
/// allocates. The bit-parallel engine ([`MsBfs`]) dominates: the
/// `seen`/`frontier`/`next` word arrays (3 × 8 bytes) plus its
/// `active`/`candidates`/`touched` reset lists (3 × 4 bytes). The classic
/// queue BFS (12 B/vertex), the direction-optimizing scratch (16 B/vertex)
/// and the top-k verification's [`BfsCut`] (~16.3 B/vertex including its
/// two frontier bitmaps) all fit under this ceiling.
///
/// [`MsBfs`]: brics_graph::traversal::MsBfs
/// [`BfsCut`]: brics_graph::traversal::BfsCut
pub(crate) const THREAD_SCRATCH_BYTES_PER_VERTEX: u64 = 36;

/// Bytes/vertex of the dense `u64` array an MS-BFS worker of an
/// accumulating sweep sums its running batch into before publishing it.
/// Serial kernels publish from their own distance array and need none.
pub(crate) const DENSE_PUBLISH_BYTES_PER_VERTEX: u64 = 8;

/// Bytes per source of the parallel BFS sweep's bookkeeping: the source id
/// (4), its `Option<(reached, Σ d)>` row (24) and the farness value an
/// exact sweep builds from the row (8).
pub(crate) const SOURCE_ROW_BYTES: u64 = 36;

/// Bytes/vertex of the MS-BFS per-source distance rows when row recording
/// is enabled (the cumulative engine's block tasks replay removal records
/// against full rows): one batch of 64 sources × 4-byte distances.
pub(crate) const MSBFS_ROW_BYTES_PER_VERTEX: u64 = 256;

/// Bytes of a whole-graph accumulation run
/// ([`crate::sampling::random_sampling`],
/// [`crate::harmonic::harmonic_sampling`]): one shared `u64` accumulator,
/// the result's coverage/sampled bookkeeping, per worker the widest BFS
/// scratch plus the dense publish array (distance rows stay off for flat
/// accumulation), and the rows of up to `n` sources.
pub(crate) fn accumulate_run_bytes(n: usize, threads: usize) -> u64 {
    let threads = threads.max(1) as u64;
    let n = n as u64;
    8 * n
        + 16 * n
        + threads * (THREAD_SCRATCH_BYTES_PER_VERTEX + DENSE_PUBLISH_BYTES_PER_VERTEX) * n
        + SOURCE_ROW_BYTES * n
}

/// Bytes of one exact-BFS sweep ([`crate::exact_farness`]): per-thread BFS
/// scratch and one row per vertex — there is no shared accumulator, so no
/// dense publish array either.
pub(crate) fn exact_run_bytes(n: usize, threads: usize) -> u64 {
    let threads = threads.max(1) as u64;
    (threads * THREAD_SCRATCH_BYTES_PER_VERTEX + SOURCE_ROW_BYTES) * n as u64
}

/// Bytes of a cumulative-engine run
/// ([`crate::cumulative::cumulative_estimate`]): three shared `u64`
/// accumulators (intra / inter / exact) plus, per worker thread, a global
/// `u32` distance array, the widest BFS scratch, and the MS-BFS distance
/// rows its block tasks record.
pub(crate) fn cumulative_run_bytes(n: usize, threads: usize) -> u64 {
    let threads = threads.max(1) as u64;
    let n = n as u64;
    3 * 8 * n
        + threads
            * (THREAD_SCRATCH_BYTES_PER_VERTEX + 4 + MSBFS_ROW_BYTES_PER_VERTEX)
            * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_scale_linearly() {
        let t = rayon::current_num_threads().max(1);
        assert!(accumulate_run_bytes(2000, t) >= 2 * accumulate_run_bytes(1000, t) - 16);
        assert!(exact_run_bytes(100, t) < accumulate_run_bytes(100, t));
        assert_eq!(accumulate_run_bytes(0, t), 0);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(accumulate_run_bytes(10, 0), accumulate_run_bytes(10, 1));
        assert!(cumulative_run_bytes(10, 4) > cumulative_run_bytes(10, 1));
    }

    // The constant comparisons ARE the point: they document which kernel
    // scratch figures the planning ceiling must dominate.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn per_thread_scratch_covers_every_kernel() {
        // The plan's per-thread figure must dominate each concrete scratch
        // struct: MS-BFS word arrays + reset lists (24 + 12), classic queue
        // BFS (12), direction-optimizing (16), BfsCut with two bitmaps
        // (16 + 2 × 1/8). If a kernel grows past this, raise the constant —
        // the memory_tracking tests pin planned >= observed at runtime.
        assert!(THREAD_SCRATCH_BYTES_PER_VERTEX >= 24 + 12);
        assert!(THREAD_SCRATCH_BYTES_PER_VERTEX as f64 >= 16.0 + 2.0 / 8.0);
        // An accumulating MS-BFS worker also holds one `u64` per vertex for
        // the running batch, and every source keeps its id, its row and
        // (exact sweeps) the farness value built from it.
        assert_eq!(DENSE_PUBLISH_BYTES_PER_VERTEX, std::mem::size_of::<u64>() as u64);
        let row = std::mem::size_of::<brics_graph::NodeId>()
            + std::mem::size_of::<Option<(usize, u64)>>()
            + std::mem::size_of::<u64>();
        assert!(SOURCE_ROW_BYTES >= row as u64);
        // Row recording is 64 sources × 4-byte distances per vertex and is
        // only charged to the cumulative plan, which must therefore exceed
        // the accumulate plan at any thread count.
        assert_eq!(MSBFS_ROW_BYTES_PER_VERTEX, 64 * 4);
        for t in [1, 2, 8, 64] {
            assert!(cumulative_run_bytes(1000, t) > accumulate_run_bytes(1000, t));
        }
    }
}
