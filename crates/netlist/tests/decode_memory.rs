//! Decoding a hostile frame holds no more memory than the parse needs.
//!
//! `moss-serve` hands every EMBED payload, up to its 8 MiB frame limit,
//! to `parse_verilog`, one connection per thread. The frontend pulls
//! tokens from the source one at a time, so a frame that fails early
//! costs the AST built so far and nothing per token, however long the
//! rest of it is. The test binary installs a counting global allocator
//! and runs one test, so every allocation in the measured window is the
//! parser's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use moss_netlist::{parse_verilog, NetlistError};

struct CountingAlloc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // Counted as one resize, as the system allocator may grow in place.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            let old_size = layout.size();
            if new_size >= old_size {
                let grow = new_size - old_size;
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(old_size - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The 8 MiB EMBED frame limit.
const FRAME: usize = 8 << 20;

#[test]
fn a_frame_of_semicolons_is_rejected_in_bounded_memory() {
    let src = ";".repeat(FRAME);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let err = parse_verilog(&src).unwrap_err();
    let peak = PEAK.load(Ordering::Relaxed) - base;

    let NetlistError::Verilog(e) = err else {
        panic!("expected a Verilog parse error, got {err}");
    };
    assert_eq!((e.line, e.column), (1, 1));
    assert!(
        e.to_string()
            .ends_with("expected keyword 'module', found ';'"),
        "{e}"
    );
    assert!(
        peak < 1 << 20,
        "rejecting {FRAME} bytes of ';' held {peak} bytes of heap beyond the source"
    );
}
