//! Stress tests: many external callers sharing one executor, deep
//! nesting, repeated panics, and dropping an executor right after use.

use std::sync::atomic::{AtomicUsize, Ordering};

use swag_exec::{ExecConfig, Executor};

/// Several OS threads share one executor and issue overlapping par_maps.
#[test]
fn concurrent_external_par_maps() {
    let exec = Executor::new(ExecConfig::with_threads(4));
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..6 {
            let (exec, total) = (exec.clone(), &total);
            s.spawn(move || {
                for round in 0..20 {
                    let items: Vec<usize> = (0..64).map(|i| i + t * 1000 + round).collect();
                    let out = exec.par_map(&items, |&x| x * 2);
                    assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
                    total.fetch_add(out.len(), Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), 6 * 20 * 64);
    assert_eq!(
        exec.stats().tasks,
        6 * 20 * 3,
        "clones share one spawn counter"
    );
}

/// par_map inside par_map inside par_map_owned on a two-thread
/// executor: each level opens its own scope and none waits on another.
#[test]
fn deeply_nested_on_small_pool() {
    let exec = Executor::new(ExecConfig::with_threads(2));
    let outer: Vec<usize> = (0..6).collect();
    let out = exec.par_map(&outer, |&i| {
        let inner: Vec<usize> = (0..8).collect();
        exec.par_map(&inner, |&j| {
            exec.par_map_owned(vec![i, j], |x| x).iter().sum::<usize>() + i * 10
        })
        .iter()
        .sum::<usize>()
            + i * 1000
    });
    let expected: Vec<usize> = (0..6)
        .map(|i| (0..8).map(|j| i + j + i * 10).sum::<usize>() + i * 1000)
        .collect();
    assert_eq!(out, expected);
}

/// Dropping an executor and its clones right after parallel work returns
/// at once: no thread outlives a call, so there is nothing to join.
#[test]
fn drop_shuts_down_cleanly() {
    for _ in 0..10 {
        let exec = Executor::new(ExecConfig::with_threads(4));
        let clone = exec.clone();
        let items: Vec<usize> = (0..256).collect();
        let out = clone.par_map(&items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        drop(clone);
        assert_eq!(exec.stats().tasks, 3);
        drop(exec);
    }
}

/// A panic in any chunk, round after round, reaches the caller with its
/// payload and leaves the executor usable for the next call.
#[test]
fn pool_survives_repeated_panics() {
    let exec = Executor::new(ExecConfig::with_threads(2));
    let items: Vec<usize> = (0..32).collect();
    for round in 0..5 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map(&items, |&i| {
                if i == round * 7 {
                    panic!("round {round}");
                }
                i
            })
        }));
        let payload = result.expect_err("the panic propagates");
        assert_eq!(
            payload.downcast_ref::<String>().unwrap(),
            &format!("round {round}")
        );
        let ok = exec.par_map_owned(items.clone(), |i| i + round);
        assert_eq!(ok, items.iter().map(|i| i + round).collect::<Vec<_>>());
    }
}
