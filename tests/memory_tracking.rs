//! The tracking allocator under load: this binary installs
//! [`brics_graph::telemetry::TrackingAllocator`] as the global allocator
//! (the only test binary that does — the others deliberately run on the
//! system allocator) and pins the ledger's contract:
//!
//! * results are bit-identical to the uninstrumented binaries
//!   (fingerprint shared with `telemetry_invariance`),
//! * the budget planner's figures are genuine upper bounds on the
//!   observed per-span heap footprint for every method and kernel,
//! * the v3 report's memory block is populated and internally consistent,
//! * live-growth policing trips [`RunOutcome::MemoryLimit`] once a
//!   budgeted admission has armed the baseline.
//!
//! Every test holds [`MEM_LOCK`] (see [`mem_lock`]) so one test's
//! transient allocations don't inflate another's observed span peaks.
//! Each span measures against its own heap watermark, so its peak is
//! exact whatever ran before it.

mod common;

use std::sync::{Mutex, MutexGuard, PoisonError};

use brics::{
    ExecutionContext, MemoryPlan, Method, PrepareConfig, PreparedGraph, RunRecorder, SampleSize,
};
use brics_graph::generators::{ClassParams, GraphClass};
use brics_graph::telemetry::{memory, timed};
use brics_graph::{CsrGraph, RunControl, RunOutcome};

#[global_allocator]
static ALLOC: brics_graph::telemetry::TrackingAllocator =
    brics_graph::telemetry::TrackingAllocator;

/// Serializes the tests of this binary: they read the process-global
/// ledger.
static MEM_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`MEM_LOCK`]. A test that failed while holding it leaves the
/// lock poisoned; the guarded `()` cannot be torn, so the others go on.
fn mem_lock() -> MutexGuard<'static, ()> {
    MEM_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn tracking_allocator_reports_live_and_peak() {
    let _guard = mem_lock();
    assert!(memory::tracking_active(), "global allocator not registered");
    // The allocated/freed totals only ever grow, so their deltas see this
    // test's block whatever other threads allocate or free meanwhile.
    let before = memory::stats();
    let block = vec![0u8; 1 << 20];
    let during = memory::stats();
    let live = memory::live_bytes();
    assert!(
        during.allocated_bytes - before.allocated_bytes >= 1 << 20,
        "1 MiB allocation invisible to the ledger: {} -> {}",
        before.allocated_bytes,
        during.allocated_bytes
    );
    assert!(memory::peak_bytes() >= live, "peak below live");
    drop(block);
    let after = memory::stats();
    assert!(after.freed_bytes - during.freed_bytes >= 1 << 20, "free not debited");
    assert!(after.allocations > 0);
    assert_eq!(after.live_bytes(), after.allocated_bytes - after.freed_bytes);
}

/// The other half of this pin lives in `telemetry_invariance` (no
/// allocator installed): both binaries must agree with the constant, so
/// the tracker provably does not perturb results.
#[test]
fn results_are_bit_identical_with_tracker_installed() {
    let _guard = mem_lock();
    assert_eq!(
        common::reference_fingerprint(),
        common::REFERENCE_FINGERPRINT,
        "tracking allocator changed computed farness"
    );
}

/// Pins per-span watermarks: a span that allocates less than an earlier
/// phase did still reads its own peak, not the process high-watermark,
/// and a parent span's peak covers its child's.
#[test]
fn span_peak_is_exact_after_a_heavier_allocation() {
    let _guard = mem_lock();
    const MIB: u64 = 1 << 20;
    drop(std::hint::black_box(vec![1u8; 32 << 20]));
    let rec = RunRecorder::new();
    timed(&rec, "outer", || {
        let outer = std::hint::black_box(vec![1u8; 1 << 20]);
        timed(&rec, "inner", || drop(std::hint::black_box(vec![1u8; 256 << 10])));
        drop(outer);
    });
    let report = rec.report();
    let footprint = |name: &str| {
        report.phases.iter().find(|p| p.name == name).expect("span recorded").mem_footprint_bytes
    };
    let inner = footprint("inner");
    assert!((256 << 10..MIB).contains(&inner), "inner span footprint {inner}");
    let outer = footprint("outer");
    assert!((MIB + (256 << 10)..32 * MIB).contains(&outer), "outer span footprint {outer}");
    assert!(memory::peak_bytes() >= 32 * MIB, "process peak lost the 32 MiB block");
}

/// A span that a panic unwinds still folds its parent's watermark back,
/// as a caught panic in the prepare stage does under `--degrade`: the
/// parent's peak keeps the allocation it made before the child opened.
#[test]
fn unwound_span_keeps_its_parents_peak() {
    let _guard = mem_lock();
    const MIB: u64 = 1 << 20;
    let rec = RunRecorder::new();
    timed(&rec, "outer", || {
        drop(std::hint::black_box(vec![1u8; 1 << 20]));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Unwinds without running the panic hook, whose backtrace
            // capture would allocate inside the span.
            timed(&rec, "inner", || std::panic::resume_unwind(Box::new("injected")))
        }));
        assert!(caught.is_err());
    });
    let report = rec.report();
    let outer = report.phases.iter().find(|p| p.name == "outer").expect("span recorded");
    let footprint = outer.mem_footprint_bytes;
    assert!(footprint >= MIB, "outer span footprint {footprint}");
}

/// Builds the prepare stage `method` queries, untraced.
fn prepare_untraced(g: &CsrGraph, method: Method) -> PreparedGraph<'_> {
    let cfg = PrepareConfig {
        reductions: method.reductions(),
        use_bcc: method.uses_bcc(),
        reorder: false,
    };
    PreparedGraph::build_with(g, cfg, &ExecutionContext::new()).unwrap()
}

#[test]
fn planned_bytes_bound_observed_span_peaks() {
    let _guard = mem_lock();
    let g = GraphClass::Social.generate(ClassParams::new(700, 13));
    let ctx_probe = ExecutionContext::new();
    let plan = MemoryPlan::compute(g.num_nodes(), ctx_probe.thread_count());
    let sample = SampleSize::Fraction(0.4);
    let cases = [
        (Method::RandomSampling, plan.accumulate_bytes),
        (Method::CR, plan.accumulate_bytes),
        (Method::ICR, plan.accumulate_bytes),
        (Method::Cumulative, plan.cumulative_bytes),
    ];
    for (method, planned) in cases {
        let p = prepare_untraced(&g, method);
        let rec = RunRecorder::new();
        let ctx = ExecutionContext::new().with_recorder(&rec);
        match method {
            Method::RandomSampling => p.sample(sample, 19, &ctx).map(drop),
            Method::Cumulative => p.cumulative(sample, 19, &ctx).map(drop),
            _ => p.reduced(sample, 19, &ctx).map(drop),
        }
        .unwrap();
        let mut report = rec.report();
        report.stamp_planned_bytes(planned);
        let mem = &report.memory;
        assert!(mem.tracking, "{}: tracking flag off", method.name());
        assert!(
            mem.observed_peak_bytes <= planned,
            "{}: observed span peak {} exceeds planned {planned} — \
             budget.rs constants no longer dominate this kernel",
            method.name(),
            mem.observed_peak_bytes,
        );
        let accuracy = mem.plan_accuracy.expect("stamped plan must yield accuracy");
        assert!(
            (0.0..=1.0).contains(&accuracy),
            "{}: plan accuracy {accuracy} out of [0, 1]",
            method.name()
        );
    }

    // Exact sweeps and top-k verification go through their own planners.
    let rec = RunRecorder::new();
    let ctx = ExecutionContext::new().with_recorder(&rec);
    brics::exact_farness_in(&g, &ctx).unwrap();
    let mut report = rec.report();
    report.stamp_planned_bytes(plan.exact_bytes);
    assert!(
        report.memory.observed_peak_bytes <= plan.exact_bytes,
        "exact: observed {} > planned {}",
        report.memory.observed_peak_bytes,
        plan.exact_bytes
    );

    let p = prepare_untraced(&g, Method::Cumulative);
    let rec = RunRecorder::new();
    let ctx = ExecutionContext::new().with_recorder(&rec);
    p.topk(10, sample, 19, &ctx).unwrap();
    let mut report = rec.report();
    report.stamp_planned_bytes(plan.cumulative_bytes);
    assert!(
        report.memory.observed_peak_bytes <= plan.cumulative_bytes,
        "topk: observed {} > planned {} (verify span included)",
        report.memory.observed_peak_bytes,
        plan.cumulative_bytes
    );
}

#[test]
fn report_memory_block_is_populated_and_consistent() {
    let _guard = mem_lock();
    let g = GraphClass::Web.generate(ClassParams::new(500, 5));
    let rec = RunRecorder::new();
    let ctx = ExecutionContext::new().with_recorder(&rec);
    brics::BricsEstimator::new(Method::Cumulative)
        .sample(SampleSize::Fraction(0.3))
        .seed(2)
        .run_in(&g, &ctx)
        .unwrap();
    let report = rec.report();
    assert_eq!(report.schema, brics::RunReport::SCHEMA);
    let mem = &report.memory;
    assert!(mem.tracking);
    assert!(mem.live_bytes > 0, "nothing live at snapshot time?");
    assert!(mem.process_peak_bytes >= mem.live_bytes, "peak below live");
    assert!(mem.process_peak_bytes >= mem.observed_peak_bytes);
    assert!(mem.allocations > 0);
    // Unstamped report: no plan, no accuracy — but spans still carry
    // their envelopes.
    assert_eq!(mem.planned_bytes, 0);
    assert!(mem.plan_accuracy.is_none());
    let estimate =
        report.phases.iter().find(|p| p.name == "estimate").expect("estimate span");
    assert!(
        estimate.mem_peak_bytes >= estimate.mem_open_bytes,
        "span peak below its opening level"
    );
    assert_eq!(
        estimate.mem_footprint_bytes,
        estimate.mem_peak_bytes - estimate.mem_open_bytes,
    );
}

#[test]
fn live_growth_past_budget_trips_memory_limit() {
    let _guard = mem_lock();
    let ctl = RunControl::new().with_memory_budget_mb(1);
    // Budget configured but baseline not yet armed: growth is not policed.
    assert_eq!(ctl.should_stop(), None);
    let _pre = vec![1u8; 4 << 20];
    assert_eq!(ctl.should_stop(), None, "must not police before admission");

    // A successful small admission arms the baseline at the current level…
    ctl.admit_memory(64 * 1024).expect("64 KiB fits a 1 MiB budget");
    assert_eq!(ctl.should_stop(), None, "no growth yet");

    // …after which exceeding the budget in *live growth* trips the stop.
    // 32 MiB against a 1 MiB budget leaves generous margin for concurrent
    // test-harness allocations shifting the baseline.
    let hog = vec![7u8; 32 << 20];
    assert_eq!(ctl.should_stop(), Some(RunOutcome::MemoryLimit));
    assert!(RunOutcome::MemoryLimit.is_interrupted());

    // Freeing the hog drops live bytes back under the budget: the stop
    // condition is a live measurement, not a latch.
    drop(hog);
    assert_eq!(ctl.should_stop(), None, "stop must clear when memory is freed");
}
