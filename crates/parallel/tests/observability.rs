//! Integration tests for the observability surface: timeline spans and
//! per-worker steal counts.
//!
//! These live in their own test binary (own process) because they flip
//! the global telemetry/timeline gates, which the library's unit tests
//! assume stay off.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};

use egraph_parallel::fault::{FaultGuard, FaultPlan};
use egraph_parallel::timeline::{self, SpanKind};
use egraph_parallel::{parallel_for, telemetry};

/// Serializes the tests, which all flip a process-global gate: one
/// test's telemetry `enable()` zeroes the counters another test is
/// accumulating, and one test's timeline `reset()` or `disable()` drops
/// the spans another test is recording.
static GATE: Mutex<()> = Mutex::new(());

/// Pins the global pool to 4 workers before any test touches it, so
/// the per-worker assertions are meaningful regardless of host size.
fn init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("EGRAPH_THREADS", "4");
        assert_eq!(egraph_parallel::current_num_threads(), 4);
    });
}

#[test]
fn timeline_records_region_spans_per_worker() {
    init();
    let _gate = GATE.lock().unwrap();
    timeline::enable();
    timeline::reset();
    egraph_parallel::parallel_for(0..100_000, 1024, |_r| {
        std::hint::black_box(0u64);
    });
    {
        let _step = timeline::span(SpanKind::Step, "test_step", "push");
        egraph_parallel::parallel_for(0..10_000, 1024, |_r| {});
    }
    timeline::disable();

    let spans = timeline::snapshot();
    let regions: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Region)
        .collect();
    // Two parallel regions ran on a 4-thread pool: every worker logged
    // one region span per region it executed; worker 0 (the caller)
    // ran both.
    assert!(regions.iter().filter(|s| s.worker == 0).count() >= 2);
    let distinct_workers: std::collections::BTreeSet<_> =
        regions.iter().map(|s| s.worker).collect();
    assert!(
        distinct_workers.len() >= 2,
        "expected region spans on several workers, got {distinct_workers:?}"
    );
    let step = spans
        .iter()
        .find(|s| s.kind == SpanKind::Step)
        .expect("step span recorded");
    assert_eq!(step.name, "test_step");
    assert_eq!(step.detail, "push");
    assert_eq!(step.worker, 0);
    assert_eq!(timeline::dropped_spans(), 0);
}

#[test]
fn chrome_trace_export_has_tracks_and_directions() {
    init();
    let _gate = GATE.lock().unwrap();
    timeline::enable();
    {
        let _step = timeline::span(SpanKind::Step, "export_step", "pull");
        egraph_parallel::parallel_for(0..10_000, 512, |_r| {});
    }
    timeline::disable();

    let json = timeline::chrome_trace_json();
    // Shape checks against the Chrome trace-event format: a single
    // traceEvents array, thread-name metadata per worker track, "X"
    // complete events, and the push/pull annotation on step spans.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    for worker in 0..4 {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"worker {worker}\"}}")),
            "missing thread_name metadata for worker {worker}"
        );
    }
    assert!(json.contains("\"ph\":\"M\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"cat\":\"region\""));
    assert!(json.contains("\"name\":\"export_step\""));
    assert!(json.contains("\"args\":{\"direction\":\"pull\"}"));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));
}

/// A loop over `0..n` whose first quarter (worker 0's block on a
/// 4-worker pool) carries all the work. Worker 0 holds its first chunk
/// until another worker has run a heavy one, which that worker can only
/// have stolen, so the skew shows whatever the host's load.
fn skewed_loop(n: usize) {
    let stolen = AtomicBool::new(false);
    parallel_for(0..n, 16, |piece| {
        let me = egraph_parallel::current_worker_index().expect("inside a region");
        for i in piece {
            if i < n / 4 {
                stolen.fetch_or(me != 0, Ordering::SeqCst);
                while i == 0 && !stolen.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let mut x = i as u64 + 1;
                for _ in 0..20_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(x);
            }
        }
    });
}

#[test]
fn skewed_workload_shows_up_in_steals_and_imbalance() {
    init();
    let _gate = GATE.lock().unwrap();
    telemetry::enable();
    // All the real work sits in the first quarter of the range — worker
    // 0's block — so the other workers sweep their cheap blocks at once
    // and must steal to contribute.
    skewed_loop(4_096);
    telemetry::disable();

    let snap = telemetry::snapshot();
    assert_eq!(snap.steals_per_worker.len(), 4);
    assert_eq!(snap.steals_per_worker.iter().sum::<u64>(), snap.steals);
    assert!(
        snap.steals > 0,
        "a skewed workload must force steals, got {:?}",
        snap.steals_per_worker
    );
    // The thieves are the workers whose blocks were cheap, not the one
    // that owned the heavy quarter from the start.
    let thieves = snap
        .steals_per_worker
        .iter()
        .skip(1)
        .filter(|&&s| s > 0)
        .count();
    assert!(
        thieves >= 1,
        "expected at least one non-owner worker to steal, got {:?}",
        snap.steals_per_worker
    );
    // Stealing rebalances execution, but the imbalance metric is still
    // well-formed over the same run.
    assert!(snap.load_imbalance() >= 1.0);
    assert!(snap.total_busy_seconds() > 0.0);
}

#[test]
fn steal_storm_makes_every_other_worker_steal() {
    init();
    let _gate = GATE.lock().unwrap();
    let _storm = FaultGuard::install(FaultPlan::new(1).steal_storm());
    telemetry::enable();
    // Every chunk starts in worker 0's block. Each worker holds its
    // first chunk until every worker has one, so no worker can sweep
    // the whole range before the others wake up; the others' chunks can
    // only have been stolen.
    let ran: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
    let sum = egraph_parallel::parallel_reduce(
        0..1_024,
        1,
        || 0u64,
        |acc, r| {
            let me = egraph_parallel::current_worker_index().expect("inside a region");
            ran[me].store(true, Ordering::SeqCst);
            while !ran.iter().all(|w| w.load(Ordering::SeqCst)) {
                std::thread::yield_now();
            }
            acc + r.map(|i| i as u64).sum::<u64>()
        },
        |a, b| a + b,
    );
    telemetry::disable();
    assert_eq!(sum, 1_023 * 1_024 / 2);
    let snap = telemetry::snapshot();
    assert!(
        snap.steals_per_worker[1..].iter().all(|&s| s > 0),
        "every worker but 0 starts empty and must steal, got {:?}",
        snap.steals_per_worker
    );
}

#[test]
fn enable_resets_per_worker_steal_counters_between_runs() {
    init();
    let _gate = GATE.lock().unwrap();

    // Run 1: the same skewed workload as above forces steals. The pool
    // is persistent (and reusable after panics since the fault-injection
    // work), so these counts would survive into the next run if enable()
    // did not open a fresh window.
    telemetry::enable();
    skewed_loop(4_096);
    telemetry::disable();
    let first = telemetry::snapshot();
    assert!(
        first.steals > 0,
        "precondition: run 1 must record steals, got {:?}",
        first.steals_per_worker
    );

    // Run 2 on the SAME pool: a region with no loop in it, which cannot
    // steal. A fresh collection window must show zero steals — not run
    // 1's leftovers.
    telemetry::enable();
    egraph_parallel::broadcast_current(&|_| {
        std::hint::black_box(0u64);
    });
    telemetry::disable();
    let second = telemetry::snapshot();
    assert_eq!(
        second.steals_per_worker,
        vec![0, 0, 0, 0],
        "per-worker steal counters must reset between pool reuses"
    );
    assert_eq!(second.steals, 0);
    assert!(second.regions >= 1, "run 2's own activity is still counted");
}
