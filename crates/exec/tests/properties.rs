//! Property tests: the parallel map agrees exactly with serial execution
//! across random inputs and thread counts.

use proptest::prelude::*;
use swag_exec::{ExecConfig, Executor};

proptest! {
    #[test]
    fn par_map_matches_serial(
        items in proptest::collection::vec(any::<i64>(), 0..500),
        threads in 1usize..=8,
    ) {
        let serial = Executor::serial();
        let parallel = Executor::new(ExecConfig::with_threads(threads));
        let f = |x: &i64| x.wrapping_mul(31).wrapping_add(7);
        prop_assert_eq!(serial.par_map(&items, f), parallel.par_map(&items, f));
    }

    #[test]
    fn par_map_owned_matches_serial(
        items in proptest::collection::vec(any::<u32>(), 0..300),
        threads in 1usize..=8,
    ) {
        let serial = Executor::serial();
        let parallel = Executor::new(ExecConfig::with_threads(threads));
        let f = |x: u32| format!("{x:08x}");
        prop_assert_eq!(
            serial.par_map_owned(items.clone(), f),
            parallel.par_map_owned(items, f)
        );
    }
}
