//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a tree from a known data set is much faster than repeated
//! insertion and produces better-packed nodes: items are sorted by the
//! centre of their box along the first dimension, tiled into slabs, and the
//! procedure recurses over the remaining dimensions. The same tiling then
//! builds each upper level from the level below.
//!
//! Group sizes are distributed evenly, which guarantees every non-root node
//! holds at least `⌈M/2⌉ ≥ m` entries, so the bulk-loaded tree satisfies the
//! same invariants as an incrementally built one
//! ([`RTree::check_invariants`]).

use crate::mbr::Aabb;
use crate::node::{fold_mbr, Child, Item, Node};
use crate::tree::{RTree, RTreeConfig};

impl<T, const D: usize> RTree<T, D> {
    /// Builds a tree from `items` using STR packing and the default
    /// configuration.
    pub fn bulk_load(items: Vec<(Aabb<D>, T)>) -> Self {
        Self::bulk_load_with_config(RTreeConfig::default(), items)
    }

    /// Builds a tree from `items` using STR packing.
    pub fn bulk_load_with_config(config: RTreeConfig, items: Vec<(Aabb<D>, T)>) -> Self {
        let mut tree = RTree::with_config(config);
        if items.is_empty() {
            return tree;
        }
        tree.nodes.clear();
        let entries: Vec<Item<T, D>> = items
            .into_iter()
            .map(|(mbr, value)| Item { mbr, value })
            .collect();
        let n = entries.len();
        let mut groups = Vec::new();
        tile(
            entries,
            0,
            config.max_entries,
            &|i: &Item<T, D>| i.mbr.center(),
            &mut groups,
        );
        pack_levels(&mut tree, n, groups);
        tree
    }
}

/// Builds leaf nodes from `groups` and packs the upper levels.
fn pack_levels<T, const D: usize>(tree: &mut RTree<T, D>, n: usize, groups: Vec<Vec<Item<T, D>>>) {
    let cap = tree.config.max_entries;
    let mut level: Vec<Child<D>> = groups
        .into_iter()
        .map(|g| {
            let mbr = fold_mbr(g.iter().map(|i| i.mbr)).expect("non-empty group");
            let node = tree.alloc(Node::leaf_from(g));
            Child { mbr, node }
        })
        .collect();

    let mut height = 0;
    while level.len() > 1 {
        let mut groups = Vec::new();
        tile(level, 0, cap, &|c: &Child<D>| c.mbr.center(), &mut groups);
        level = groups
            .into_iter()
            .map(|g| {
                let mbr = fold_mbr(g.iter().map(|c| c.mbr)).expect("non-empty group");
                let node = tree.alloc(Node::internal_from(g));
                Child { mbr, node }
            })
            .collect();
        height += 1;
    }

    tree.root = level[0].node;
    tree.height = height;
    tree.len = n;
}

impl<T: Clone, const D: usize> RTree<T, D> {
    /// Builds a new tree containing this tree's items plus `more`,
    /// re-packed with STR under the same configuration.
    ///
    /// This is the batch counterpart of repeated [`RTree::insert`]: when a
    /// shard accumulates a publish-interval's worth of new items, one STR
    /// re-pack of old + new is cheaper and better-packed than inserting
    /// them one by one, and it leaves `self` untouched (snapshot-friendly).
    pub fn bulk_extend(&self, more: Vec<(Aabb<D>, T)>) -> Self {
        let mut items: Vec<(Aabb<D>, T)> = Vec::with_capacity(self.len() + more.len());
        items.extend(self.iter().map(|(mbr, value)| (*mbr, value.clone())));
        items.extend(more);
        Self::bulk_load_with_config(self.config, items)
    }
}

/// Recursively tiles `entries` into groups of at most `cap`, each group
/// holding at least `⌈cap/2⌉` entries whenever more than one group is
/// produced.
fn tile<E, const D: usize>(
    mut entries: Vec<E>,
    dim: usize,
    cap: usize,
    center: &impl Fn(&E) -> [f64; D],
    out: &mut Vec<Vec<E>>,
) {
    let n = entries.len();
    if n <= cap {
        out.push(entries);
        return;
    }
    let total_groups = n.div_ceil(cap);
    entries.sort_unstable_by(|a, b| center(a)[dim].total_cmp(&center(b)[dim]));

    if dim + 1 == D {
        even_chunks(entries, total_groups, out);
    } else {
        // Number of slabs along this dimension: the (D−dim)-th root of the
        // group count, rounded up.
        let k = (D - dim) as f64;
        let slabs = (total_groups as f64).powf(1.0 / k).ceil() as usize;
        let slabs = slabs.clamp(1, total_groups);
        let mut slab_vec = Vec::new();
        even_chunks(entries, slabs, &mut slab_vec);
        for slab in slab_vec {
            tile(slab, dim + 1, cap, center, out);
        }
    }
}

/// Splits `entries` into `g` contiguous chunks whose sizes differ by at
/// most one.
fn even_chunks<E>(entries: Vec<E>, g: usize, out: &mut Vec<Vec<E>>) {
    let n = entries.len();
    debug_assert!(g >= 1 && g <= n);
    let base = n / g;
    let extra = n % g;
    let mut iter = entries.into_iter();
    for i in 0..g {
        let size = base + usize::from(i < extra);
        out.push(iter.by_ref().take(size).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SplitStrategy;

    fn points(n: u32) -> Vec<(Aabb<2>, u32)> {
        (0..n)
            .map(|i| {
                let x = f64::from(i % 100);
                let y = f64::from(i / 100);
                (Aabb::from_point([x, y]), i)
            })
            .collect()
    }

    #[test]
    fn empty_bulk_load() {
        let t: RTree<u32, 2> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn small_bulk_load_is_single_leaf() {
        let t = RTree::bulk_load(points(10));
        assert_eq!(t.len(), 10);
        assert_eq!(t.stats().height, 1);
        t.check_invariants();
    }

    #[test]
    fn bulk_load_invariants_hold_across_sizes() {
        for n in [1u32, 15, 16, 17, 100, 1000, 4097] {
            let t = RTree::bulk_load(points(n));
            assert_eq!(t.len(), n as usize, "n = {n}");
            t.check_invariants();
        }
    }

    #[test]
    fn bulk_load_equals_incremental_results() {
        let data = points(2000);
        let bulk = RTree::bulk_load(data.clone());
        let mut incr: RTree<u32, 2> = RTree::new();
        for (mbr, v) in data {
            incr.insert(mbr, v);
        }
        for query in [
            Aabb::new([0.0, 0.0], [10.0, 10.0]),
            Aabb::new([50.0, 5.0], [70.0, 15.0]),
            Aabb::new([-5.0, -5.0], [-1.0, -1.0]),
            Aabb::new([0.0, 0.0], [100.0, 100.0]),
        ] {
            let mut a: Vec<u32> = bulk.search(&query).into_iter().copied().collect();
            let mut b: Vec<u32> = incr.search(&query).into_iter().copied().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bulk_load_is_shallower_or_equal() {
        let data = points(5000);
        let bulk = RTree::bulk_load(data.clone());
        let mut incr: RTree<u32, 2> = RTree::new();
        for (mbr, v) in data {
            incr.insert(mbr, v);
        }
        assert!(bulk.stats().height <= incr.stats().height);
        // STR packs tighter: fewer nodes.
        assert!(bulk.stats().nodes <= incr.stats().nodes);
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts_and_removes() {
        let mut t = RTree::bulk_load(points(500));
        t.insert(Aabb::from_point([512.0, 512.0]), 9999);
        assert_eq!(t.len(), 501);
        t.check_invariants();
        assert_eq!(
            t.remove(&Aabb::from_point([512.0, 512.0]), |&v| v == 9999),
            Some(9999)
        );
        t.check_invariants();
    }

    #[test]
    fn bulk_extend_merges_old_and_new() {
        let data = points(300);
        let (old, new) = data.split_at(200);
        let base = RTree::bulk_load(old.to_vec());
        let merged = base.bulk_extend(new.to_vec());
        assert_eq!(merged.len(), 300);
        merged.check_invariants();
        // Base is untouched (snapshot semantics).
        assert_eq!(base.len(), 200);
        let full = RTree::bulk_load(data.clone());
        let query = Aabb::new([0.0, 0.0], [100.0, 100.0]);
        let mut a: Vec<u32> = merged.search(&query).into_iter().copied().collect();
        let mut b: Vec<u32> = full.search(&query).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_extend_from_empty() {
        let empty: RTree<u32, 2> = RTree::new();
        let t = empty.bulk_extend(points(50));
        assert_eq!(t.len(), 50);
        t.check_invariants();
    }

    #[test]
    fn bulk_load_with_linear_config() {
        let t = RTree::bulk_load_with_config(
            RTreeConfig {
                max_entries: 8,
                min_entries: 3,
                split: SplitStrategy::Linear,
                reinsert_fraction: 0.0,
            },
            points(777),
        );
        assert_eq!(t.len(), 777);
        t.check_invariants();
    }
}
