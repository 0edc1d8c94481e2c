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

use swag_exec::Executor;

use crate::mbr::Aabb;
use crate::node::{fold_mbr, Child, Item, Node};
use crate::tree::{RTree, RTreeConfig};

/// Below this many entries a parallel leaf tiling is pure overhead.
const PAR_TILE_MIN: usize = 2048;

impl<T, const D: usize> RTree<T, D> {
    /// Builds a tree from `items` using STR packing and the default
    /// configuration.
    pub fn bulk_load(items: Vec<(Aabb<D>, T)>) -> Self {
        Self::bulk_load_with_config(RTreeConfig::default(), items)
    }

    /// Builds a tree from `items` using STR packing.
    pub fn bulk_load_with_config(config: RTreeConfig, items: Vec<(Aabb<D>, T)>) -> Self {
        let mut tree = RTree::with_config(config);
        let Some(entries) = leaf_items(&mut tree, items) else {
            return tree;
        };
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

impl<T: Send, const D: usize> RTree<T, D> {
    /// [`RTree::bulk_load`] with the leaf tiling fanned out on `exec`.
    ///
    /// Produces a tree *identical* to the serial build: the top-level
    /// sort runs on the caller, and each slab is then tiled
    /// independently — the same work the serial recursion does, merely
    /// claimed by different workers — so group boundaries, node layout,
    /// and traversal order match exactly.
    pub fn bulk_load_par(exec: &Executor, items: Vec<(Aabb<D>, T)>) -> Self {
        Self::bulk_load_with_config_par(exec, RTreeConfig::default(), items)
    }

    /// [`RTree::bulk_load_with_config`] with the leaf tiling on `exec`.
    pub fn bulk_load_with_config_par(
        exec: &Executor,
        config: RTreeConfig,
        items: Vec<(Aabb<D>, T)>,
    ) -> Self {
        let mut tree = RTree::with_config(config);
        let Some(entries) = leaf_items(&mut tree, items) else {
            return tree;
        };
        let n = entries.len();
        let cap = config.max_entries;
        let mut groups = Vec::new();
        let center = |i: &Item<T, D>| i.mbr.center();
        if exec.is_serial() || n < PAR_TILE_MIN {
            tile(entries, 0, cap, &center, &mut groups);
        } else {
            tile_par(exec, entries, cap, &center, &mut groups);
        }
        pack_levels(&mut tree, n, groups);
        tree
    }
}

/// Converts `items` to leaf items ready for tiling, clearing any nodes
/// `tree` may hold. Returns `None` when there is nothing to load.
fn leaf_items<T, const D: usize>(
    tree: &mut RTree<T, D>,
    items: Vec<(Aabb<D>, T)>,
) -> Option<Vec<Item<T, D>>> {
    if items.is_empty() {
        return None;
    }
    tree.nodes.clear();
    Some(
        items
            .into_iter()
            .map(|(mbr, value)| Item { mbr, value })
            .collect(),
    )
}

/// Builds leaf nodes from `groups` and packs the upper levels serially
/// (they are a `max_entries`-th the size of the level below, so the
/// leaf tiling dominates the build).
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

impl<T: Clone + Send, const D: usize> RTree<T, D> {
    /// Builds a new tree containing this tree's items plus `more`,
    /// re-packed with STR under the same configuration, the leaf tiling
    /// on `exec` (a serial executor gives the identical tree).
    ///
    /// This is the batch counterpart of repeated [`RTree::insert`]: when a
    /// shard accumulates a publish-interval's worth of new items, one STR
    /// re-pack of old + new is cheaper and better-packed than inserting
    /// them one by one, and it leaves `self` untouched (snapshot-friendly).
    pub fn bulk_extend_par(&self, exec: &Executor, more: Vec<(Aabb<D>, T)>) -> Self {
        let mut items: Vec<(Aabb<D>, T)> = Vec::with_capacity(self.len() + more.len());
        items.extend(self.iter().map(|(mbr, value)| (*mbr, value.clone())));
        items.extend(more);
        Self::bulk_load_with_config_par(exec, self.config, items)
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

/// Top-level tiling with the slab recursion fanned out on `exec`.
///
/// Deterministically identical to [`tile`] at `dim = 0`: the full sort
/// happens here on one thread, slab boundaries come from the same
/// [`even_chunks`] arithmetic, and each slab is tiled by the ordinary
/// serial recursion — workers merely claim different slabs, and the
/// output concatenates slab results in slab order.
fn tile_par<E: Send, const D: usize>(
    exec: &Executor,
    mut entries: Vec<E>,
    cap: usize,
    center: &(impl Fn(&E) -> [f64; D] + Sync),
    out: &mut Vec<Vec<E>>,
) {
    let n = entries.len();
    if n <= cap || D < 2 {
        return tile(entries, 0, cap, center, out);
    }
    let total_groups = n.div_ceil(cap);
    entries.sort_unstable_by(|a, b| center(a)[0].total_cmp(&center(b)[0]));

    let k = D as f64;
    let slabs = (total_groups as f64).powf(1.0 / k).ceil() as usize;
    let slabs = slabs.clamp(1, total_groups);
    let mut slab_vec = Vec::new();
    even_chunks(entries, slabs, &mut slab_vec);
    let tiled = exec.par_map_owned(slab_vec, |slab| {
        let mut local = Vec::new();
        tile(slab, 1, cap, center, &mut local);
        local
    });
    for mut local in tiled {
        out.append(&mut local);
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
        let merged = base.bulk_extend_par(&swag_exec::Executor::serial(), new.to_vec());
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
        let t = empty.bulk_extend_par(&swag_exec::Executor::serial(), points(50));
        assert_eq!(t.len(), 50);
        t.check_invariants();
    }

    #[test]
    fn parallel_bulk_load_builds_identical_tree() {
        use swag_exec::{ExecConfig, Executor};
        let exec = Executor::new(ExecConfig::with_threads(4));
        // Both above and below the PAR_TILE_MIN cutoff.
        for n in [100u32, 5000] {
            let data = points(n);
            let serial = RTree::bulk_load(data.clone());
            let parallel = RTree::bulk_load_par(&exec, data);
            parallel.check_invariants();
            assert_eq!(serial.len(), parallel.len());
            assert_eq!(serial.stats().height, parallel.stats().height);
            assert_eq!(serial.stats().nodes, parallel.stats().nodes);
            // Identical structure ⇒ identical traversal order.
            let a: Vec<(Aabb<2>, u32)> = serial.iter().map(|(m, v)| (*m, *v)).collect();
            let b: Vec<(Aabb<2>, u32)> = parallel.iter().map(|(m, v)| (*m, *v)).collect();
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn parallel_bulk_extend_matches_serial() {
        use swag_exec::{ExecConfig, Executor};
        let exec = Executor::new(ExecConfig::with_threads(3));
        let data = points(4000);
        let (old, new) = data.split_at(1000);
        let base = RTree::bulk_load(old.to_vec());
        let serial = base.bulk_extend_par(&Executor::serial(), new.to_vec());
        let parallel = base.bulk_extend_par(&exec, new.to_vec());
        parallel.check_invariants();
        let a: Vec<(Aabb<2>, u32)> = serial.iter().map(|(m, v)| (*m, *v)).collect();
        let b: Vec<(Aabb<2>, u32)> = parallel.iter().map(|(m, v)| (*m, *v)).collect();
        assert_eq!(a, b);
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
