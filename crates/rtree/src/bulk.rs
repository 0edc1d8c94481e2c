//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a tree from a known data set is much faster than repeated
//! insertion and produces better-packed nodes: items are sorted by the
//! centre of their box along the first dimension, tiled into slabs, and the
//! procedure recurses over the remaining tiled dimensions. The same tiling
//! then builds each upper level from the level below.
//!
//! By default every dimension is tiled. [`RTree::bulk_load_tiled`] tiles
//! only the leading `k` of them: when the data set is already partitioned
//! along the trailing dimensions (a time shard of a spatio-temporal index
//! is a time partition), tiling those too only coarsens the cells of the
//! leading ones.
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
        Self::bulk_load_tiled(config, D, items)
    }

    /// Builds a tree from `items` using STR packing over the leading
    /// `dims` dimensions only, at every level: entries are sorted into
    /// slabs along dimensions `0..dims` and the rest never order them.
    ///
    /// # Panics
    /// Panics unless `1 ≤ dims ≤ D`.
    pub fn bulk_load_tiled(config: RTreeConfig, dims: usize, items: Vec<(Aabb<D>, T)>) -> Self {
        assert!((1..=D).contains(&dims), "tiled dims {dims} outside 1..={D}");
        let mut tree = RTree::with_config(config);
        if items.is_empty() {
            return tree;
        }
        tree.nodes.clear();
        let mut entries: Vec<Item<T, D>> = items
            .into_iter()
            .map(|(mbr, value)| Item { mbr, value })
            .collect();
        let n = entries.len();
        let mut lens = Vec::new();
        let center = |i: &Item<T, D>, d: usize| i.mbr.min[d] + i.mbr.max[d];
        tile(
            &mut entries,
            0,
            dims,
            config.max_entries,
            &center,
            &mut lens,
        );
        pack_levels(&mut tree, n, dims, entries, &lens);
        tree
    }
}

/// Builds leaf nodes from `entries` cut into groups of `lens` and packs
/// the upper levels, tiling their leading `dims` dimensions.
fn pack_levels<T, const D: usize>(
    tree: &mut RTree<T, D>,
    n: usize,
    dims: usize,
    entries: Vec<Item<T, D>>,
    lens: &[usize],
) {
    let cap = tree.config.max_entries;
    let mut level: Vec<Child<D>> = groups(entries, lens)
        .map(|g| {
            let mbr = fold_mbr(g.iter().map(|i| i.mbr)).expect("non-empty group");
            let node = tree.alloc(Node::leaf_from(g));
            Child { mbr, node }
        })
        .collect();

    let mut height = 0;
    while level.len() > 1 {
        let mut lens = Vec::new();
        let center = |c: &Child<D>, d: usize| c.mbr.min[d] + c.mbr.max[d];
        tile(&mut level, 0, dims, cap, &center, &mut lens);
        level = groups(level, &lens)
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

/// Recursively tiles `entries` in place along dimensions `dim..dims` into
/// consecutive groups of at most `cap`, pushing each group's length onto
/// `out`; every group holds at least `⌈cap/2⌉` entries whenever more than
/// one group is produced.
/// Entries sort by `center(e, dim)`, twice the box centre along `dim`
/// (the same order, one addition cheaper). Sorting sub-slices in place
/// means an entry is moved only by the sorts until [`groups`] hands it to
/// its node.
fn tile<E>(
    entries: &mut [E],
    dim: usize,
    dims: usize,
    cap: usize,
    center: &impl Fn(&E, usize) -> f64,
    out: &mut Vec<usize>,
) {
    let n = entries.len();
    if n <= cap {
        out.push(n);
        return;
    }
    let total_groups = n.div_ceil(cap);
    entries.sort_unstable_by(|a, b| center(a, dim).total_cmp(&center(b, dim)));

    if dim + 1 == dims {
        out.extend(even_lens(n, total_groups));
    } else {
        // Number of slabs along this dimension: the (dims−dim)-th root of
        // the group count, rounded up.
        let k = (dims - dim) as f64;
        let slabs = (total_groups as f64).powf(1.0 / k).ceil() as usize;
        let slabs = slabs.clamp(1, total_groups);
        let mut rest = entries;
        for len in even_lens(n, slabs) {
            let (slab, tail) = rest.split_at_mut(len);
            tile(slab, dim + 1, dims, cap, center, out);
            rest = tail;
        }
    }
}

/// The lengths of `g` contiguous chunks of `n` entries that differ by at
/// most one.
fn even_lens(n: usize, g: usize) -> impl Iterator<Item = usize> {
    debug_assert!(g >= 1 && g <= n);
    let (base, extra) = (n / g, n % g);
    (0..g).map(move |i| base + usize::from(i < extra))
}

/// `entries` cut into consecutive groups of `lens`.
fn groups<'a, E: 'a>(entries: Vec<E>, lens: &'a [usize]) -> impl Iterator<Item = Vec<E>> + 'a {
    let mut rest = entries.into_iter();
    lens.iter()
        .map(move |&len| rest.by_ref().take(len).collect())
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

    /// The largest extent along `d` of any leaf of a bulk-loaded tree.
    fn max_leaf_extent(t: &RTree<u32, 3>, d: usize) -> f64 {
        t.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf { items } => fold_mbr(items.iter().map(|i| i.mbr)),
                Node::Internal { .. } => None,
            })
            .map(|b| b.max[d] - b.min[d])
            .fold(0.0, f64::max)
    }

    #[test]
    fn tiling_leading_dims_only_leaves_the_rest_unordered() {
        // An 8 × 8 spatial grid, 16 instants per cell: 64 full leaves.
        // Tiled in space only, each leaf is one cell over all of time;
        // tiled in all three dimensions, leaves also split time.
        let data: Vec<(Aabb<3>, u32)> = (0..1024u32)
            .map(|i| {
                let (x, y, t) = (i % 8, (i / 8) % 8, i / 64);
                (Aabb::from_point([x.into(), y.into(), t.into()]), i)
            })
            .collect();
        let config = RTreeConfig::default();
        let space = RTree::bulk_load_tiled(config, 2, data.clone());
        let full = RTree::bulk_load(data.clone());
        space.check_invariants();
        assert_eq!(max_leaf_extent(&space, 0), 0.0);
        assert_eq!(max_leaf_extent(&space, 1), 0.0);
        assert_eq!(max_leaf_extent(&space, 2), 15.0);
        assert_eq!(max_leaf_extent(&full, 2), 3.0);
        // Same answers either way.
        let query = Aabb::new([1.0, 0.0, 10.0], [2.0, 3.0, 12.0]);
        let mut a: Vec<u32> = space.search(&query).into_iter().copied().collect();
        let mut b: Vec<u32> = full.search(&query).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a.len(), 2 * 4 * 3);
        assert_eq!(a, b);
        assert_eq!(
            RTree::bulk_load_tiled(config, 3, data).stats(),
            full.stats()
        );
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
