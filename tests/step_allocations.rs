//! A steady-state training step allocates (almost) nothing: the stage's
//! one tape hands every step the previous step's buffers back.
//!
//! A counting global allocator measures a whole continual CERL stage
//! (memory, φ warm-up and joint training) for two learners that differ
//! only in the mini-batch size. Both run the same epochs, warm-up steps
//! and validation passes, so everything a stage does per epoch or once
//! cancels in the difference, and what is left over the difference in
//! optimizer steps is what one step allocates. One file, one test: the
//! allocator counts every thread, so nothing else may run beside it.

use cerl::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation and
/// reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees are the ones the caller gets.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one steady-state continual step may make. What is left
/// is outside the tape: the mini-batch's index list, the step's
/// treatment flags and memory draw, the loss-term list, and the
/// Wasserstein op (a boxed op whose Sinkhorn solve and gradients own
/// their matrices). A tape built from fresh buffers every step makes
/// about 400 here.
const MAX_ALLOCATIONS_PER_STEP: f64 = 32.0;

const EPOCHS: usize = 2;

fn stream() -> DomainStream {
    let gen = SyntheticGenerator::new(
        SyntheticConfig {
            n_units: 300,
            ..SyntheticConfig::small()
        },
        2801,
    );
    DomainStream::synthetic(&gen, 2, 0, 2801)
}

/// Allocations of the continual stage (domain 1) and its optimizer
/// steps, for a learner trained with mini-batches of `batch_size`.
fn continual_stage(stream: &DomainStream, batch_size: usize) -> (u64, usize) {
    let mut cfg = CerlConfig::quick_test();
    cfg.train.epochs = EPOCHS;
    cfg.train.batch_size = batch_size;
    cfg.train.phi_warmup_steps = 20;
    cfg.memory_size = 60;
    let (first, second) = (stream.domain(0), stream.domain(1));
    let mut cerl = Cerl::try_new(first.train.dim(), cfg, 2802).unwrap();
    cerl.try_observe(&first.train, &first.val).unwrap();
    assert!(cerl.memory().is_some_and(|m| !m.is_empty()));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = cerl.try_observe(&second.train, &second.val).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(report.train.epochs_run, EPOCHS);
    // The mini-batches of one epoch: a 1-unit tail merges into the
    // previous batch.
    let n = second.train.n();
    let batches = n.div_ceil(batch_size) - usize::from(n % batch_size == 1);
    (allocations, EPOCHS * batches)
}

#[test]
fn a_steady_state_step_makes_a_small_constant_number_of_allocations() {
    let stream = stream();
    let (small_allocs, small_steps) = continual_stage(&stream, 4);
    let (large_allocs, large_steps) = continual_stage(&stream, 36);
    assert!(
        small_steps > large_steps + 50,
        "{small_steps} vs {large_steps}"
    );
    let per_step = (small_allocs as f64 - large_allocs as f64) / (small_steps - large_steps) as f64;
    println!(
        "{per_step:.1} allocations per step ({small_allocs} over {small_steps} steps, \
         {large_allocs} over {large_steps})"
    );
    assert!(
        per_step <= MAX_ALLOCATIONS_PER_STEP,
        "{per_step:.1} allocations per steady-state step, at most {MAX_ALLOCATIONS_PER_STEP} allowed"
    );
}
