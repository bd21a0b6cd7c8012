//! Allocation discipline of the Monte-Carlo hot path: once its buffers
//! are warm, one planned realization plus one batched accuracy evaluation
//! allocates nothing, under both kernel profiles.
//!
//! A counting global allocator records every allocation made by the test
//! thread while counting is switched on; other threads (the test harness)
//! are never counted.

use spnn_core::{
    iteration_rng, BatchScratch, HardwareEffects, KernelProfile, MeshTopology, PerturbationPlan,
    PhotonicNetwork, RealizationPlan, RealizeScratch, TestBatch,
};
use spnn_linalg::C64;
use spnn_neural::ComplexNetwork;
use spnn_photonics::spatial::CorrelatedFpv;
use spnn_photonics::thermal::ThermalCrosstalk;
use spnn_photonics::UncertaintySpec;
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
fn warm_planned_iteration_allocates_nothing() {
    let sw = ComplexNetwork::new(&[16, 16, 16, 10], 9);
    let hw = PhotonicNetwork::from_network(&sw, MeshTopology::Clements, Some(3)).unwrap();
    let features: Vec<Vec<C64>> = (0..70)
        .map(|i| {
            (0..16)
                .map(|j| C64::new(((i * 3 + j) % 7) as f64 * 0.1, ((i + j) % 4) as f64 * 0.1))
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..features.len()).map(|i| i % 10).collect();
    let batch = TestBatch::new(&features, &labels);
    let plan = PerturbationPlan::global(UncertaintySpec::both(0.05));
    let effects = HardwareEffects {
        quantization_bits: Some(8),
        thermal: ThermalCrosstalk::new(0.01, 60.0),
        spatial: Some(CorrelatedFpv::new(4, 2000.0, 0.02, 0.005)),
        mzi_loss_db: 0.05,
        ..HardwareEffects::default()
    };
    let realization = RealizationPlan::new(&hw, &plan, &effects);

    // The counter is live: the one-shot path, which builds fresh buffers,
    // is seen allocating.
    assert!(
        allocations_during(|| {
            std::hint::black_box(hw.realize(&plan, &effects, &mut iteration_rng(21, 0)));
        }) > 0
    );

    for profile in [KernelProfile::Reference, KernelProfile::Fma] {
        let mut realize = RealizeScratch::default();
        let mut matrices = Vec::new();
        let mut scratch = BatchScratch::default();
        let mut iteration = |k: usize| {
            realization.realize_into(&mut iteration_rng(21, k), &mut realize, &mut matrices);
            batch.accuracy_with_profile(&hw, &matrices, profile, &mut scratch)
        };
        iteration(0); // warm the buffers
        let mut sum = 0.0;
        let allocations = allocations_during(|| {
            for k in 1..6 {
                sum += iteration(k);
            }
        });
        assert!(sum.is_finite());
        assert_eq!(
            allocations, 0,
            "{profile:?}: a warm iteration must not allocate"
        );
    }
}
