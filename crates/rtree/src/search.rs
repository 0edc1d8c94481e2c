//! Read-side traversals: range search, k-NN, iteration.
//!
//! Range searches are one leaf walk ([`RTree::search_leaves`]) that
//! recurses over the arena in **reverse child order** —
//! the same visit sequence an explicit LIFO stack produces, kept so the
//! two formulations stay interchangeable without reordering results.
//! Recursion measured faster than a heap-allocated stack on the
//! `rtree_arena` ablation (the compiler keeps the per-level cursor in
//! registers and the depth of an R-tree is tiny), and it allocates
//! nothing. Depth is bounded by `log_m(n)` — under the default fan-out a
//! height of 12 already holds billions of items, so stack use is a
//! non-issue.

use std::collections::BinaryHeap;

use crate::mbr::Aabb;
use crate::node::{Item, Node, NodeIx};
use crate::tree::RTree;

/// Traversal counters accumulated by [`RTree::search_with_stats`].
///
/// An out-param rather than a return value so repeated searches (e.g. one
/// per time shard) can aggregate into a single struct without allocating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes popped from the traversal stack (internal + leaf).
    pub nodes_visited: u64,
    /// Leaf nodes whose items were examined.
    pub leaves_scanned: u64,
    /// Items whose boxes were intersection-tested.
    pub items_tested: u64,
    /// Items that intersected the query and were visited.
    pub items_matched: u64,
}

impl SearchStats {
    /// Adds another search's counters into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_scanned += other.leaves_scanned;
        self.items_tested += other.items_tested;
        self.items_matched += other.items_matched;
    }
}

impl<T, const D: usize> RTree<T, D> {
    /// Collects references to all values whose box intersects `query`.
    pub fn search(&self, query: &Aabb<D>) -> Vec<&T> {
        let mut out = Vec::new();
        self.search_with(query, |_mbr, v| out.push(v));
        out
    }

    /// Visits every item whose box intersects `query` without allocating.
    pub fn search_with<'a>(&'a self, query: &Aabb<D>, mut visit: impl FnMut(&'a Aabb<D>, &'a T)) {
        self.search_leaves(query, |_, items| {
            for item in items.iter().filter(|item| item.mbr.intersects(query)) {
                visit(&item.mbr, &item.value);
            }
        });
    }

    /// [`Self::search_with`] that additionally accumulates traversal
    /// counters into `stats`: every leaf reached counts as scanned.
    pub fn search_with_stats<'a>(
        &'a self,
        query: &Aabb<D>,
        stats: &mut SearchStats,
        mut visit: impl FnMut(&'a Aabb<D>, &'a T),
    ) {
        let mut leaves = SearchStats::default();
        let internal = self.search_leaves(query, |_, items| {
            leaves.nodes_visited += 1;
            leaves.leaves_scanned += 1;
            leaves.items_tested += items.len() as u64;
            for item in items.iter().filter(|item| item.mbr.intersects(query)) {
                leaves.items_matched += 1;
                visit(&item.mbr, &item.value);
            }
        });
        leaves.nodes_visited += internal;
        stats.merge(&leaves);
    }

    /// The one depth-first walk: calls `visit` for every leaf whose box
    /// intersects `query`, with that box (its parent's entry; `None` for
    /// a root leaf) and its entries, unfiltered. Returns the internal
    /// nodes walked, so a caller that examines leaves itself can keep
    /// [`SearchStats::nodes_visited`].
    pub fn search_leaves<'a>(
        &'a self,
        query: &Aabb<D>,
        mut visit: impl FnMut(Option<&'a Aabb<D>>, &'a [Item<T, D>]),
    ) -> u64 {
        let mut internal = 0;
        if self.len > 0 {
            self.leaves_rec(self.root, None, query, &mut internal, &mut visit);
        }
        internal
    }

    fn leaves_rec<'a>(
        &'a self,
        ix: NodeIx,
        mbr: Option<&'a Aabb<D>>,
        query: &Aabb<D>,
        internal: &mut u64,
        visit: &mut impl FnMut(Option<&'a Aabb<D>>, &'a [Item<T, D>]),
    ) {
        match self.node(ix) {
            Node::Leaf { items } => visit(mbr, items),
            Node::Internal { mbrs, children } => {
                *internal += 1;
                for (mbr, child) in mbrs.iter().zip(children).rev() {
                    if mbr.intersects(query) {
                        self.leaves_rec(*child, Some(mbr), query, internal, visit);
                    }
                }
            }
        }
    }

    /// Returns the `k` stored values nearest to `point` (by MBR `MINDIST`),
    /// closest first, together with their squared distances.
    ///
    /// Uses best-first traversal with a priority queue, so it touches only
    /// the nodes whose boxes can contain a better candidate.
    pub fn nearest_k(&self, point: [f64; D], k: usize) -> Vec<(&T, f64)> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }

        /// Max-heap entry ordered by negative distance = min-heap by distance.
        struct HeapEntry<'a, T, const D: usize> {
            dist_sq: f64,
            kind: Candidate<'a, T, D>,
        }
        enum Candidate<'a, T, const D: usize> {
            Node(NodeIx),
            Item(&'a T),
        }
        impl<T, const D: usize> PartialEq for HeapEntry<'_, T, D> {
            fn eq(&self, other: &Self) -> bool {
                self.dist_sq == other.dist_sq
            }
        }
        impl<T, const D: usize> Eq for HeapEntry<'_, T, D> {}
        impl<T, const D: usize> PartialOrd for HeapEntry<'_, T, D> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T, const D: usize> Ord for HeapEntry<'_, T, D> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse: smallest distance pops first.
                other.dist_sq.total_cmp(&self.dist_sq)
            }
        }

        let mut heap: BinaryHeap<HeapEntry<'_, T, D>> = BinaryHeap::new();
        heap.push(HeapEntry {
            dist_sq: 0.0,
            kind: Candidate::Node(self.root),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(entry) = heap.pop() {
            match entry.kind {
                Candidate::Item(v) => {
                    out.push((v, entry.dist_sq));
                    if out.len() == k {
                        break;
                    }
                }
                Candidate::Node(ix) => match self.node(ix) {
                    Node::Leaf { items } => {
                        for item in items {
                            heap.push(HeapEntry {
                                dist_sq: item.mbr.min_dist_sq(&point),
                                kind: Candidate::Item(&item.value),
                            });
                        }
                    }
                    Node::Internal { mbrs, children } => {
                        for (mbr, child) in mbrs.iter().zip(children) {
                            heap.push(HeapEntry {
                                dist_sq: mbr.min_dist_sq(&point),
                                kind: Candidate::Node(*child),
                            });
                        }
                    }
                },
            }
        }
        out
    }

    /// Iterates over all `(box, value)` pairs in arbitrary order.
    ///
    /// Owns its stack (rather than borrowing the thread scratch) because
    /// the iterator can outlive any scoped borrow.
    pub fn iter(&self) -> impl Iterator<Item = (&Aabb<D>, &T)> {
        let mut stack = if self.len == 0 {
            vec![]
        } else {
            vec![self.root]
        };
        let mut leaf: Option<&[Item<T, D>]> = None;
        let mut pos = 0;
        std::iter::from_fn(move || loop {
            if let Some(items) = leaf {
                if pos < items.len() {
                    let i = pos;
                    pos += 1;
                    return Some((&items[i].mbr, &items[i].value));
                }
                leaf = None;
            }
            let ix = stack.pop()?;
            match self.node(ix) {
                Node::Leaf { items } => {
                    leaf = Some(items);
                    pos = 0;
                }
                Node::Internal { children, .. } => stack.extend(children.iter().copied()),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_tree(n: u32) -> RTree<u32, 2> {
        let mut t = RTree::new();
        for i in 0..n {
            let x = f64::from(i % 100);
            let y = f64::from(i / 100);
            t.insert(Aabb::from_point([x, y]), i);
        }
        t
    }

    #[test]
    fn search_with_stats_matches_search_and_counts() {
        let t = grid_tree(1000);
        let query = Aabb::new([10.0, 2.0], [30.0, 6.0]);
        let plain = t.search(&query);

        let mut stats = SearchStats::default();
        let mut observed = Vec::new();
        t.search_with_stats(&query, &mut stats, |_mbr, v| observed.push(v));
        assert_eq!(observed, plain);
        assert_eq!(stats.items_matched, plain.len() as u64);
        assert!(stats.items_tested >= stats.items_matched);
        assert!(stats.nodes_visited >= stats.leaves_scanned);
        assert!(stats.leaves_scanned >= 1);
        // Selective queries must not scan the whole tree.
        assert!(stats.items_tested < t.len() as u64);

        // Out-param aggregates across calls.
        let before = stats;
        t.search_with_stats(&query, &mut stats, |_, _| {});
        assert_eq!(stats.items_matched, before.items_matched * 2);

        let empty: RTree<u32, 2> = RTree::new();
        let mut s = SearchStats::default();
        empty.search_with_stats(&query, &mut s, |_, _| {});
        assert_eq!(s, SearchStats::default());
    }

    #[test]
    fn search_leaves_lends_every_reached_leaf_with_its_box() {
        let t = grid_tree(1000);
        let query = Aabb::new([10.0, 2.0], [30.0, 6.0]);
        let mut stats = SearchStats::default();
        let mut plain = Vec::new();
        t.search_with_stats(&query, &mut stats, |_, v| plain.push(*v));

        let (mut leaves, mut found) = (0, Vec::new());
        let internal = t.search_leaves(&query, |mbr, items| {
            leaves += 1;
            let mbr = mbr.expect("a 1000-item tree has internal nodes");
            assert!(mbr.intersects(&query));
            for item in items {
                assert!(mbr.contains(&item.mbr));
                if item.mbr.intersects(&query) {
                    found.push(item.value);
                }
            }
        });
        // The same walk: same matches in the same order, same counts.
        assert_eq!(found, plain);
        assert_eq!(leaves, stats.leaves_scanned);
        assert_eq!(internal + leaves, stats.nodes_visited);

        // A root leaf has no parent entry; an empty tree lends nothing.
        let small = grid_tree(3);
        let mut lent = 0;
        let walked = small.search_leaves(&Aabb::new([0.0, 0.0], [0.5, 0.5]), |mbr, items| {
            assert!(mbr.is_none());
            lent += items.len();
        });
        assert_eq!((walked, lent), (0, 3));
        let empty: RTree<u32, 2> = RTree::new();
        assert_eq!(empty.search_leaves(&query, |_, _| panic!("no leaf")), 0);
    }

    #[test]
    fn reentrant_search_from_visit_callback() {
        // A visit callback that runs a second search on the same tree must
        // see correct results even though both share the thread scratch.
        let t = grid_tree(1000);
        let outer_q = Aabb::new([0.0, 0.0], [4.0, 1.0]);
        let inner_q = Aabb::new([50.0, 5.0], [54.0, 6.0]);
        let inner_expect = t.search(&inner_q).len();
        let mut outer = 0usize;
        t.search_with(&outer_q, |_, _| {
            outer += 1;
            assert_eq!(t.search(&inner_q).len(), inner_expect);
        });
        assert_eq!(outer, t.search(&outer_q).len());
    }

    #[test]
    fn nearest_k_exact_order() {
        let t = grid_tree(100);
        let hits = t.nearest_k([5.2, 0.0], 3);
        let ids: Vec<u32> = hits.iter().map(|(v, _)| **v).collect();
        assert_eq!(ids, vec![5, 6, 4]);
        // Distances are non-decreasing.
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn nearest_k_more_than_len() {
        let t = grid_tree(7);
        assert_eq!(t.nearest_k([0.0, 0.0], 100).len(), 7);
    }

    #[test]
    fn iter_visits_everything() {
        let t = grid_tree(333);
        let mut seen: Vec<u32> = t.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..333).collect::<Vec<_>>());
    }
}
