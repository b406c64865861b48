//! Counting-allocator check of the trace sink's record path: a record is a
//! `Vec` push into the recording thread's own buffer, so 10,000 stage
//! records from one thread allocate only when that buffer grows (about
//! log2(10,000) times), never once per record.

use fftx_trace::{Lane, StageRecord, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation path (alloc, alloc_zeroed, realloc) made by a
/// thread while its `COUNTING` flag is set, so the test harness's own
/// threads cannot move the count.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the memory handed out; counting touches
// only an atomic and a const-initialised thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RECORDS: usize = 10_000;

#[test]
fn stage_records_allocate_only_for_buffer_growth() {
    let sink = TraceSink::new();
    COUNTING.with(|c| c.set(true));
    for i in 0..RECORDS {
        sink.stage(StageRecord {
            lane: Lane::new(0, 0),
            stage: (i % 10) as u32,
            band: i as u32,
            t_start: i as f64,
            t_end: i as f64 + 0.5,
        });
    }
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let growth_bound = 2 * (RECORDS as f64).log2().ceil() as u64;
    assert!(
        allocs <= growth_bound,
        "{allocs} allocations for {RECORDS} records (buffer growth allows {growth_bound})"
    );
    assert_eq!(sink.finish().stages.len(), RECORDS);
}
