//! Property-based tests: the R-tree must agree with a naive linear scan on
//! every query, under any sequence of inserts, and regardless of build
//! method (incremental vs. STR bulk load).

use proptest::prelude::*;
use swag_rtree::{Aabb, RTree, RTreeConfig, SplitStrategy};

fn arb_box3() -> impl Strategy<Value = Aabb<3>> {
    (
        [-100.0f64..100.0, -100.0f64..100.0, 0.0f64..1000.0],
        [0.0f64..20.0, 0.0f64..20.0, 0.0f64..50.0],
    )
        .prop_map(|(min, ext)| Aabb::new(min, [min[0] + ext[0], min[1] + ext[1], min[2] + ext[2]]))
}

fn arb_config() -> impl Strategy<Value = RTreeConfig> {
    (4usize..32, 0u8..3, prop::bool::ANY).prop_map(|(max, strat, reinsert)| RTreeConfig {
        max_entries: max,
        min_entries: (max / 2).max(2),
        split: match strat {
            0 => SplitStrategy::Quadratic,
            1 => SplitStrategy::Linear,
            _ => SplitStrategy::RStar,
        },
        reinsert_fraction: if reinsert { 0.3 } else { 0.0 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_query_matches_naive(
        config in arb_config(),
        boxes in prop::collection::vec(arb_box3(), 0..300),
        query in arb_box3(),
    ) {
        let mut tree: RTree<usize, 3> = RTree::with_config(config);
        for (i, b) in boxes.iter().enumerate() {
            tree.insert(*b, i);
        }
        tree.check_invariants();

        let mut got: Vec<usize> = tree.search(&query).into_iter().copied().collect();
        got.sort_unstable();
        let expected: Vec<usize> = boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bulk_load_matches_naive(
        config in arb_config(),
        boxes in prop::collection::vec(arb_box3(), 0..300),
        query in arb_box3(),
    ) {
        let data: Vec<(Aabb<3>, usize)> =
            boxes.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let tree = RTree::bulk_load_with_config(config, data);
        tree.check_invariants();

        let mut got: Vec<usize> = tree.search(&query).into_iter().copied().collect();
        got.sort_unstable();
        let expected: Vec<usize> = boxes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn iter_yields_every_item(boxes in prop::collection::vec(arb_box3(), 0..200)) {
        let mut tree: RTree<usize, 3> = RTree::new();
        for (i, b) in boxes.iter().enumerate() {
            tree.insert(*b, i);
        }
        let mut seen: Vec<usize> = tree.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..boxes.len()).collect::<Vec<_>>());
    }
}
