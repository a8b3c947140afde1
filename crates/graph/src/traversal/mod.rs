//! Breadth-first traversal kernels.
//!
//! Farness estimation is BFS-bound: the random-sampling baseline runs one
//! BFS per sampled vertex over the whole graph, and the BRICS cumulative
//! approach runs block-local BFS per sampled vertex. Both parallelise over
//! *sources* (the paper's OpenMP model, §II-A / Algorithm 5 step 2), which
//! rayon expresses as a parallel iterator over sources with thread-local
//! scratch buffers.

mod bfs;
mod bfscut;
mod dial;
mod frontier;
mod hybrid;
mod msbfs;
mod parallel;

pub use bfs::{bfs_distances, Bfs};
pub use bfscut::{BfsCut, CutOutcome};
pub use dial::DialBfs;
pub use frontier::{FrontierBitmap, SetBits};
pub use hybrid::{
    HybridBfs, HybridParams, Kernel, KernelConfig, ParFrontierBfs, SerialBfsKernel,
    TraversalStats, MSBFS_BATCH,
};
pub use msbfs::MsBfs;
pub use parallel::{
    atomic_view, atomic_view_u32, par_bfs_sweep, OnPanic, Sweep, WorkerGuard, WorkerPanic,
};
