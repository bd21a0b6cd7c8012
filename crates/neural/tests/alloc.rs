//! Allocation discipline of the training hot path: once its scratch is
//! warm, one batched training step (mini-batch backward, gradient scaling
//! and an Adam step) allocates nothing.
//!
//! A counting global allocator records every allocation made by the test
//! thread while counting is switched on; other threads (the test harness)
//! are never counted.

use spnn_linalg::C64;
use spnn_neural::{Adam, ComplexNetwork, Optimizer, TrainScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_training_step_allocates_nothing() {
    let features: Vec<Vec<C64>> = (0..70)
        .map(|i| {
            (0..16)
                .map(|j| C64::new(((i * 3 + j) % 7) as f64 * 0.1, ((i + j) % 4) as f64 * 0.1))
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..features.len()).map(|i| i % 10).collect();
    let order: Vec<usize> = (0..features.len()).rev().collect();
    let mut net = ComplexNetwork::new(&[16, 16, 16, 10], 9);
    let mut adam = Adam::new(0.01);
    let mut scratch = TrainScratch::default();
    let mut step = |batch: &[usize]| {
        net.zero_grads();
        let loss = net.backward_batch(&features, &labels, batch, &mut scratch);
        net.scale_grads(1.0 / batch.len() as f64);
        adam.step(&mut net);
        loss
    };

    // The counter is live: the first step sizes the scratch and the
    // optimizer state.
    assert!(
        allocations_during(|| {
            std::hint::black_box(step(&order[..32]));
        }) > 0
    );

    // Full and ragged batches alike reuse the warm buffers.
    let mut sum = 0.0;
    let allocations = allocations_during(|| {
        for batch in order.chunks(32) {
            sum += step(batch);
        }
    });
    assert!(sum.is_finite());
    assert_eq!(allocations, 0, "a warm training step must not allocate");
}
