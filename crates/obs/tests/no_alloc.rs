//! A disabled collector must add zero allocations to the span path, so
//! instrumentation can live permanently in hot loops. The test binary
//! installs a counting global allocator and drives the span, counter,
//! gauge and span-path capture API with collection off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_span_path_does_not_allocate() {
    moss_obs::set_enabled(false);
    // Warm up any lazy state outside the counted window.
    {
        let _g = moss_obs::span("warmup");
    }
    moss_obs::counter("warmup", 1);
    moss_obs::gauge_max("warmup_gauge", 1);
    drop(moss_obs::current_path().enter());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        let path = moss_obs::current_path();
        let entered = path.enter();
        let mut g = moss_obs::span_items("hot_stage", 64);
        g.add_items(i & 7);
        drop(g);
        drop(entered);
        moss_obs::counter("hot_counter", 1);
        moss_obs::gauge_max("hot_gauge", i);
        assert!(!moss_obs::enabled());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled span/counter path allocated {} times",
        after - before
    );
}
