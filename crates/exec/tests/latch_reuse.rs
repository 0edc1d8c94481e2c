//! Regression test for the executor's use-after-return: a parallel
//! call's completion latch lives in the coordinator's stack frame, so a
//! finishing worker's last touch of it must happen-before the
//! coordinator may leave that frame.
//!
//! Each round runs one tiny parallel call, then immediately reuses the
//! stack it occupied as a poisoned canary. A worker still inside the
//! latch (taking its lock, bumping its condvar, releasing the lock) after
//! the coordinator has returned writes into the canary, and the round
//! fails. Worker count comes from `SWAG_EXEC_THREADS` (CI runs 2 and 4).

use std::sync::atomic::{AtomicU64, Ordering};

use swag_exec::{ExecConfig, Executor};

const POISON: u64 = 0xA5A5_A5A5_A5A5_A5A5;
/// Words of canary: 16 KiB, deeper than the frames a parallel call
/// builds below its caller.
const CANARY_WORDS: usize = 2048;
const ROUNDS: u64 = 20_000;

fn workers() -> usize {
    std::env::var("SWAG_EXEC_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(2, |n| n.clamp(2, 8))
}

/// Burns a few hundred nanoseconds, varying by `n`, so chunk completion
/// times sweep across the coordinator's "is the latch set?" polls.
fn jitter(n: u64) -> u64 {
    let mut x = n | 1;
    for _ in 0..(n % 97) {
        x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7));
    }
    x
}

/// One small parallel call; its job descriptor and latch live in frames
/// below this one and are dead when it returns.
#[inline(never)]
fn parallel_call(exec: &Executor, round: u64, items: &[u64]) -> u64 {
    let mapped = exec.par_map(items, |&i| jitter(round.wrapping_add(i)));
    let (a, b) = exec.join(|| jitter(round), || jitter(round ^ 0xFF));
    mapped.iter().fold(a ^ b, |acc, v| acc.wrapping_add(*v))
}

/// Reuses the stack `parallel_call` just left: poisons it, gives a
/// straggling worker a moment to scribble, and reports the first word
/// that changed. Atomics keep the compiler from assuming the array is
/// private to this frame.
#[inline(never)]
fn reuse_frame() -> Option<(usize, u64)> {
    let canary: [AtomicU64; CANARY_WORDS] = std::array::from_fn(|_| AtomicU64::new(POISON));
    let canary = std::hint::black_box(&canary);
    for _ in 0..200 {
        std::hint::spin_loop();
    }
    canary
        .iter()
        .map(|w| w.load(Ordering::Relaxed))
        .enumerate()
        .find(|(_, w)| *w != POISON)
}

#[test]
fn coordinator_frame_is_not_touched_after_the_call_returns() {
    let exec = Executor::new(ExecConfig::with_threads(workers()));
    let items: Vec<u64> = (0..2 * workers() as u64).collect();
    let mut sink = 0u64;
    for round in 0..ROUNDS {
        sink = sink.wrapping_add(parallel_call(&exec, round, &items));
        if let Some((word, value)) = reuse_frame() {
            panic!(
                "round {round}: a worker wrote {value:#018x} into canary word {word} after \
                 the parallel call returned — its latch was still in use"
            );
        }
    }
    std::hint::black_box(sink);
}
