//! Steady-state allocation gate for the PEARL step loop.
//!
//! Once the queues have grown to their working size, a cycle must not
//! touch the heap: every per-cycle buffer is reused and every queue is
//! sized at build from its bound. This test binary installs a counting
//! global allocator that counts only on the thread that asked, so the
//! test harness's own threads do not leak into the count.

use pearl_core::{NetworkBuilder, PearlPolicy};
use pearl_workloads::BenchmarkPair;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const WARMUP: u64 = 5_000;
const WINDOW: u64 = 5_000;

thread_local! {
    /// Whether this thread's allocations are being counted, and how many
    /// it made. Const-initialized, so reading them never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note() {
    // During thread teardown the slots may be gone; nothing is counted
    // then.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the side count only touches
// const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

fn assert_steady_state_allocates_nothing(policy: PearlPolicy) {
    let name = format!("{:?}", policy.power);
    let mut net =
        NetworkBuilder::new().policy(policy).seed(1).build(BenchmarkPair::test_pairs()[0]);
    net.run(WARMUP);
    let delivered = net.stats().total_delivered_packets();
    let allocs = allocs_during(|| {
        for _ in 0..WINDOW {
            net.step();
        }
    });
    assert!(
        net.stats().total_delivered_packets() > delivered,
        "{name}: the window moved no traffic"
    );
    assert_eq!(allocs, 0, "{name}: {allocs} heap allocations over {WINDOW} steady-state cycles");
}

#[test]
fn dyn64_steps_allocate_nothing() {
    assert_steady_state_allocates_nothing(PearlPolicy::dyn_64wl());
}

#[test]
fn reactive_rw500_steps_allocate_nothing() {
    assert_steady_state_allocates_nothing(PearlPolicy::reactive(500));
}

#[test]
fn the_counter_sees_allocations() {
    let allocs = allocs_during(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert_eq!(allocs, 1);
}
