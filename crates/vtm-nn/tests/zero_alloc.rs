//! A training step allocates nothing once its buffers are warm.
//!
//! `TrainWorkspace`, `MlpGrads` and the optimizer moments are sized by the
//! first step at a batch size; every later step must reuse them. A counting
//! global allocator checks that over 100 steps of the paper's 12-64-64-1
//! network at mini-batch 20. It counts only the thread that armed it, so the
//! test harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vtm_nn::matrix::Matrix;
use vtm_nn::mlp::{Mlp, MlpConfig, MlpGrads, TrainWorkspace};
use vtm_nn::optimizer::Adam;

/// The system allocator, counting allocations made while armed.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`; counting touches only
// an atomic and a const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn training_step_allocates_nothing_after_warm_up() {
    const BATCH: usize = 20;
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let mut net = MlpConfig::new(12, &[64, 64], 1).build(&mut rng);
    let features = (0..BATCH * 12).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let x = Matrix::from_vec(BATCH, 12, features).unwrap();
    let targets: Vec<f64> = (0..BATCH).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut adam = Adam::new(3e-3);
    let mut ws = TrainWorkspace::new();
    let mut grads = MlpGrads::empty();
    let mut grad_out = Matrix::zeros(BATCH, 1);
    let mut step = |net: &mut Mlp| {
        let out = net.forward_train_ws(&x, &mut ws).unwrap();
        // The gradient of 0.5 * squared error, written in place.
        for ((g, &y), &t) in grad_out
            .as_mut_slice()
            .iter_mut()
            .zip(out.as_slice())
            .zip(&targets)
        {
            *g = y - t;
        }
        net.backward_ws(&x, &mut ws, &grad_out, &mut grads).unwrap();
        grads.clip_global_norm(0.5);
        adam.step(net, &grads);
    };

    // The warm-up step sizes every buffer and the Adam moments.
    step(&mut net);
    let steady = allocations_during(|| (0..100).for_each(|_| step(&mut net)));
    assert_eq!(
        steady, 0,
        "100 warm training steps allocated {steady} times"
    );
    // The counter is live: one allocation on this thread is seen.
    let probe = allocations_during(|| drop(black_box(Vec::<u8>::with_capacity(16))));
    assert_eq!(probe, 1);
}
