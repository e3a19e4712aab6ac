//! Allocation budget of the request path.
//!
//! Runs a small closed-loop load scenario (three datacenters, 2k
//! requests per second) past warm-up, then counts heap allocations on
//! this thread per completed request over a measurement window. The
//! count covers everything the simulation does in that window —
//! membership heartbeats, packets, provider service, telemetry — so the
//! budget is a whole-system figure, not just routing. Resolving a
//! replica by compiling a regex and building `Machine` records on every
//! attempt costs hundreds of allocations per request and trips it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tamp_load::{LoadScenarioConfig, WorkloadConfig};
use tamp_netsim::SECS;

/// Counts allocations per thread, so tests running in parallel in this
/// binary do not pollute each other's counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted
    // instead of panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's layout and pointer guarantees carry over as they are; the
// only extra work is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: u64 = 10 * SECS;
const WINDOW: u64 = 5 * SECS;

/// About twice the measured 16.2 allocations per completed request
/// (the same in debug and release builds). The regex-and-`Machine`
/// resolver measured 419.
const BUDGET_PER_REQUEST: f64 = 32.0;

#[test]
fn allocations_per_request_stay_within_budget() {
    let cfg = LoadScenarioConfig {
        users: 20_000,
        workload: WorkloadConfig {
            think_mean: 10 * SECS,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut s = tamp_load::scenario::build(&cfg);
    s.engine.start();
    s.engine.run_until(WARMUP);
    let completed = |s: &tamp_load::LoadScenario| {
        s.engine
            .registry()
            .snapshot()
            .counter_total("load", "completed")
    };
    let done_before = completed(&s);
    let allocs_before = ALLOCS.with(Cell::get);
    s.engine.run_until(WARMUP + WINDOW);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let done = completed(&s) - done_before;
    assert!(
        done >= 5_000,
        "only {done} requests completed in the window"
    );
    let per_request = allocs as f64 / done as f64;
    eprintln!("{allocs} allocations for {done} completed requests: {per_request:.2} per request");
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per completed request, budget {BUDGET_PER_REQUEST}"
    );
}
