//! Zero-dependency tracking allocator and process-wide memory ledger.
//!
//! [`TrackingAllocator`] wraps [`std::alloc::System`] and maintains three
//! views of the heap, all updated with relaxed atomics so the hot path is
//! two `fetch_add`s and a `fetch_max` per allocation:
//!
//! - a global **live** counter (`allocated − freed`, exact at every
//!   instant) and a global **peak** high-watermark derived from it — the
//!   two numbers [`RunControl`](crate::control::RunControl) enforcement
//!   and the `--progress` heartbeat read;
//! - a [`ShardedCounters`] ledger of allocated/freed bytes and allocation
//!   counts, split over [`NUM_SHARDS`] relaxed-atomic shards that are only
//!   merged at snapshot time ([`stats`]) — the same
//!   shard-then-merge discipline as the latency histograms in
//!   [`super::histogram`]. The histograms shard by *thread*; the
//!   allocator cannot (looking up a `thread_local!` from inside
//!   `alloc`/`dealloc` re-enters the allocator during TLS setup and
//!   teardown), so it shards by a hash of the **block address** instead,
//!   which spreads contention just as well and makes an allocation and
//!   its matching free land in the same shard.
//!
//! Installing the allocator is the binary's choice (the CLI and the bench
//! drivers do; library unit tests do not), so every reader below degrades
//! to zero when tracking is not installed: [`live_bytes`] reports `0`,
//! [`tracking_active`] reports `false`, and the budget enforcement in
//! `RunControl::should_stop` never trips.
//!
//! Per-span snapshots (bytes live at span open, peak within the span) are
//! captured by [`super::timed`]/[`super::timed_metric`] and attached to
//! the phase spans of the run report; see [`super::MemSpan`]. Each open
//! span gets its own watermark: opening one lowers the tracked peak to
//! the live bytes and sets the outer value aside, closing it folds the
//! span's peak back in, so [`peak_bytes`] keeps its process-wide meaning
//! throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of counter shards. Kept equal to the histogram shard count so
/// the two subsystems have the same contention profile.
pub const NUM_SHARDS: usize = 8;

/// One shard of the allocation ledger.
#[derive(Debug, Default)]
struct Shard {
    allocated_bytes: AtomicU64,
    freed_bytes: AtomicU64,
    allocations: AtomicU64,
}

/// Merged snapshot of a [`ShardedCounters`] ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes handed out since process start.
    pub allocated_bytes: u64,
    /// Total bytes returned since process start.
    pub freed_bytes: u64,
    /// Number of successful allocations (incl. the allocating half of
    /// every `realloc`).
    pub allocations: u64,
}

impl AllocStats {
    /// Bytes currently live according to this ledger
    /// (`allocated − freed`, saturating).
    pub fn live_bytes(&self) -> u64 {
        self.allocated_bytes.saturating_sub(self.freed_bytes)
    }
}

/// A bank of [`NUM_SHARDS`] relaxed-atomic allocation counters, merged
/// only at snapshot time. Instantiable so tests can drive a private
/// ledger without racing the process-global one.
#[derive(Debug)]
pub struct ShardedCounters {
    shards: [Shard; NUM_SHARDS],
}

impl Default for ShardedCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCounters {
    /// An all-zero ledger.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Shard = Shard {
            allocated_bytes: AtomicU64::new(0),
            freed_bytes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
        };
        ShardedCounters { shards: [ZERO; NUM_SHARDS] }
    }

    /// Records an allocation of `bytes` in an explicit shard (test hook —
    /// mirrors `observe_in_shard` on the histograms).
    pub fn record_alloc_in(&self, shard: usize, bytes: u64) {
        let s = &self.shards[shard % NUM_SHARDS];
        s.allocated_bytes.fetch_add(bytes, Ordering::Relaxed);
        s.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a free of `bytes` in an explicit shard (test hook).
    pub fn record_free_in(&self, shard: usize, bytes: u64) {
        self.shards[shard % NUM_SHARDS].freed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Merges every shard into one snapshot. The counters are only ever
    /// added to, so a merged snapshot is exact for all operations that
    /// happened-before the call and at worst misses in-flight ones.
    pub fn merged(&self) -> AllocStats {
        let mut out = AllocStats::default();
        for s in &self.shards {
            out.allocated_bytes += s.allocated_bytes.load(Ordering::Relaxed);
            out.freed_bytes += s.freed_bytes.load(Ordering::Relaxed);
            out.allocations += s.allocations.load(Ordering::Relaxed);
        }
        out
    }
}

/// The process-global ledger fed by [`TrackingAllocator`].
static COUNTERS: ShardedCounters = ShardedCounters::new();

/// Exact live bytes (single relaxed counter — sharding a value that must
/// be read coherently at every budget checkpoint would force a merge per
/// read).
static LIVE: AtomicU64 = AtomicU64::new(0);

/// High-watermark of [`LIVE`] since the innermost open span opened (since
/// process start when none is open). A fully sharded peak is not
/// well-defined (the max of per-shard peaks is not the peak of the sum),
/// so the watermark is maintained with one `fetch_max` against the
/// post-update live value.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Largest watermark an opening span set aside. The process high-water
/// mark is the larger of this and [`PEAK`].
static SET_ASIDE: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 — the same mix the fault-injection triggers use; here it
/// spreads block addresses over the shards.
#[inline]
fn shard_of(ptr: *mut u8) -> usize {
    let mut x = ptr as usize as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as usize % NUM_SHARDS
}

#[inline]
fn on_alloc(ptr: *mut u8, bytes: u64) {
    COUNTERS.record_alloc_in(shard_of(ptr), bytes);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_free(ptr: *mut u8, bytes: u64) {
    COUNTERS.record_free_in(shard_of(ptr), bytes);
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Bytes currently live on the tracked heap (0 when the allocator is not
/// installed).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-watermark of [`live_bytes`] since process start.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(SET_ASIDE.load(Ordering::Relaxed))
}

/// A span's own heap watermark, open while the guard lives: opening
/// lowers the tracked peak to the bytes live now and sets the outer
/// watermark aside; dropping the guard folds the span's peak back into it,
/// so an enclosing span's peak covers this one. The fold runs on unwinding
/// too, so a span a panic cuts short does not lose its parent's peak.
/// Spans must close in the reverse order they opened, as nested calls do.
pub(crate) struct SpanPeak {
    /// Live bytes when the span opened.
    pub(crate) open_bytes: u64,
    outer: u64,
}

impl SpanPeak {
    pub(crate) fn open() -> Self {
        let open_bytes = LIVE.load(Ordering::Relaxed);
        let outer = PEAK.swap(open_bytes, Ordering::Relaxed);
        SET_ASIDE.fetch_max(outer, Ordering::Relaxed);
        SpanPeak { open_bytes, outer }
    }

    /// Closes the span and returns its peak.
    pub(crate) fn close(self) -> u64 {
        PEAK.load(Ordering::Relaxed)
    }
}

impl Drop for SpanPeak {
    fn drop(&mut self) {
        PEAK.fetch_max(self.outer, Ordering::Relaxed);
    }
}

/// Whether the tracking allocator is installed in this process (i.e. at
/// least one allocation has been accounted — with the allocator installed
/// as `#[global_allocator]` that is true before `main` runs).
pub fn tracking_active() -> bool {
    peak_bytes() > 0
}

/// Merged snapshot of the process-global allocation ledger.
pub fn stats() -> AllocStats {
    COUNTERS.merged()
}

/// `System`-backed allocator that feeds the ledger above. Install it per
/// binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: brics_graph::telemetry::memory::TrackingAllocator =
///     brics_graph::telemetry::memory::TrackingAllocator;
/// ```
///
/// Accounting uses `layout.size()` (requested bytes, not the allocator's
/// internal rounding) so the numbers line up with the planning figures,
/// and only counts allocations that actually succeeded.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAllocator;

// SAFETY: defers every allocation to `System` unchanged; the bookkeeping
// around it touches only static relaxed atomics (no TLS, no locks, no
// re-entrant allocation).
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(p, layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(p, layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(ptr, layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(ptr, layout.size() as u64);
            on_alloc(p, new_size as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The process-global statics are exercised end-to-end by the CLI and
    // by `tests/memory_tracking.rs` (which install the allocator); lib
    // tests only cover the instantiable ledger and the pure helpers.

    #[test]
    fn ledger_accumulates_and_merges() {
        let c = ShardedCounters::new();
        c.record_alloc_in(0, 100);
        c.record_alloc_in(3, 50);
        c.record_free_in(0, 30);
        c.record_alloc_in(NUM_SHARDS + 1, 7); // wraps to shard 1
        let s = c.merged();
        assert_eq!(s.allocated_bytes, 157);
        assert_eq!(s.freed_bytes, 30);
        assert_eq!(s.allocations, 3);
        assert_eq!(s.live_bytes(), 127);
    }

    #[test]
    fn live_bytes_saturates_rather_than_underflows() {
        let s = AllocStats { allocated_bytes: 10, freed_bytes: 20, allocations: 1 };
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    fn shard_hash_spreads_and_is_stable() {
        // The same pointer always lands in the same shard (alloc and free
        // must agree), and distinct addresses spread over several shards.
        let base = 0x7f00_0000_1000usize;
        let mut seen = [false; NUM_SHARDS];
        for i in 0..64 {
            let p = (base + i * 16) as *mut u8;
            let s = shard_of(p);
            assert_eq!(s, shard_of(p));
            seen[s] = true;
        }
        assert!(seen.iter().filter(|&&b| b).count() >= 2, "hash collapsed to one shard");
    }

    #[test]
    fn uninstalled_process_reads_zero() {
        // This test binary does not install the allocator, so the global
        // ledger stays silent — the exact property the budget enforcement
        // in `RunControl::should_stop` relies on to stay inert.
        assert_eq!(live_bytes(), 0);
        assert_eq!(peak_bytes(), 0);
        assert!(!tracking_active());
        assert_eq!(stats(), AllocStats::default());
    }
}
