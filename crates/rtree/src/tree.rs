//! The dynamic R-tree structure: configuration, insert, invariant
//! checks. Read-side traversals live in [`crate::search`]; the arena node
//! representation in the private `node` module.

use crate::mbr::Aabb;
use crate::node::{fold_mbr, Child, Item, Node, NodeIx};
use crate::split::{split, SplitStrategy};

/// Tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RTreeConfig {
    /// Maximum entries per node `M` (≥ 4).
    pub max_entries: usize,
    /// Minimum entries per non-root node `m` (`2 ≤ m ≤ M/2`).
    pub min_entries: usize,
    /// Node split algorithm.
    pub split: SplitStrategy,
    /// R*-style forced reinsertion: on the first leaf overflow of an
    /// insertion, evict this fraction of the node's entries (those
    /// farthest from the node centre) and re-insert them instead of
    /// splitting. `0.0` disables; the R*-tree paper recommends `0.3`.
    /// Must lie in `[0, 0.45]` so the remaining node keeps ≥ m entries.
    pub reinsert_fraction: f64,
}

impl Default for RTreeConfig {
    /// `M = 16`, `m = 6` (≈ 40 % fill), quadratic split, no forced
    /// reinsertion — a common all-round configuration.
    fn default() -> Self {
        RTreeConfig {
            max_entries: 16,
            min_entries: 6,
            split: SplitStrategy::Quadratic,
            reinsert_fraction: 0.0,
        }
    }
}

impl RTreeConfig {
    /// The full R*-tree configuration: R* split plus 30 % forced
    /// reinsertion.
    pub fn rstar() -> Self {
        RTreeConfig {
            split: SplitStrategy::RStar,
            reinsert_fraction: 0.3,
            ..RTreeConfig::default()
        }
    }

    /// Validates the parameter combination.
    fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be ≥ 4");
        assert!(
            self.min_entries >= 2 && 2 * self.min_entries <= self.max_entries,
            "min_entries must satisfy 2 ≤ m ≤ M/2 (got m = {}, M = {})",
            self.min_entries,
            self.max_entries
        );
        assert!(
            (0.0..=0.45).contains(&self.reinsert_fraction),
            "reinsert_fraction must be in [0, 0.45], got {}",
            self.reinsert_fraction
        );
    }
}

/// Structural statistics, exposed for benchmarks and invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeStats {
    /// Number of stored items.
    pub len: usize,
    /// Tree height (1 = root is a leaf).
    pub height: usize,
    /// Node count.
    pub nodes: usize,
}

/// A dynamic R-tree over `D`-dimensional boxes with payloads of type `T`.
///
/// See the [crate docs](crate) for an overview and example.
#[derive(Debug, Clone)]
pub struct RTree<T, const D: usize> {
    /// Flat node arena; handles ([`NodeIx`]) index into it.
    pub(crate) nodes: Vec<Node<T, D>>,
    pub(crate) root: NodeIx,
    /// Depth of leaves below the root (0 = root is a leaf).
    pub(crate) height: usize,
    pub(crate) len: usize,
    pub(crate) config: RTreeConfig,
}

impl<T, const D: usize> Default for RTree<T, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const D: usize> RTree<T, D> {
    /// Creates an empty tree with the default configuration.
    pub fn new() -> Self {
        Self::with_config(RTreeConfig::default())
    }

    /// Creates an empty tree with a custom configuration.
    ///
    /// # Panics
    /// Panics on invalid configurations (see [`RTreeConfig`]).
    pub fn with_config(config: RTreeConfig) -> Self {
        config.validate();
        RTree {
            nodes: vec![Node::empty_leaf()],
            root: NodeIx::new(0),
            height: 0,
            len: 0,
            config,
        }
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Structural statistics.
    pub fn stats(&self) -> RTreeStats {
        RTreeStats {
            len: self.len,
            height: self.height + 1,
            nodes: self.nodes.len(),
        }
    }

    /// The node a handle refers to.
    #[inline]
    pub(crate) fn node(&self, ix: NodeIx) -> &Node<T, D> {
        &self.nodes[ix.get()]
    }

    #[inline]
    pub(crate) fn node_mut(&mut self, ix: NodeIx) -> &mut Node<T, D> {
        &mut self.nodes[ix.get()]
    }

    /// Appends `node` to the arena.
    pub(crate) fn alloc(&mut self, node: Node<T, D>) -> NodeIx {
        self.nodes.push(node);
        NodeIx::new(self.nodes.len() - 1)
    }

    fn node_mbr(&self, ix: NodeIx) -> Aabb<D> {
        self.node(ix)
            .fold_entry_mbr()
            .expect("node_mbr of empty node")
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts a value with its bounding box.
    pub fn insert(&mut self, mbr: Aabb<D>, value: T) {
        let allow_reinsert = self.config.reinsert_fraction > 0.0;
        self.insert_impl(mbr, value, allow_reinsert);
        self.len += 1;
    }

    /// Insertion without length bookkeeping; handles root splits and the
    /// forced-reinsertion loop.
    fn insert_impl(&mut self, mbr: Aabb<D>, value: T, allow_reinsert: bool) {
        match self.insert_rec(self.root, &mbr, value, self.height, allow_reinsert) {
            InsertOutcome::Done => {}
            InsertOutcome::Split(sib_mbr, sibling) => {
                // Root split: grow the tree.
                let old_root_mbr = self.node_mbr(self.root);
                let new_root = Node::internal_from(vec![
                    Child {
                        mbr: old_root_mbr,
                        node: self.root,
                    },
                    Child {
                        mbr: sib_mbr,
                        node: sibling,
                    },
                ]);
                self.root = self.alloc(new_root);
                self.height += 1;
            }
            InsertOutcome::Reinsert(evicted) => {
                // Re-insert with reinsertion disabled so one insert
                // triggers at most one eviction round.
                for item in evicted {
                    self.insert_impl(item.mbr, item.value, false);
                }
            }
        }
    }

    /// Recursive insert.
    fn insert_rec(
        &mut self,
        node: NodeIx,
        mbr: &Aabb<D>,
        value: T,
        depth: usize,
        allow_reinsert: bool,
    ) -> InsertOutcome<T, D> {
        if depth == 0 {
            // Leaf level.
            let is_root = node == self.root;
            let max_entries = self.config.max_entries;
            let Node::Leaf { items } = self.node_mut(node) else {
                unreachable!("depth 0 must be a leaf");
            };
            items.push(Item { mbr: *mbr, value });
            if items.len() <= max_entries {
                return InsertOutcome::Done;
            }
            // R* OverflowTreatment: on the first overflow of this insert,
            // evict the farthest entries instead of splitting — unless the
            // leaf *is* the root (nowhere to re-route through).
            let mut items = self.node_mut(node).take_leaf_items();
            if allow_reinsert && !is_root {
                let evict = ((items.len() as f64) * self.config.reinsert_fraction).ceil() as usize;
                let evict = evict.clamp(1, items.len() - self.config.min_entries);
                let evicted = evict_farthest(&mut items, evict);
                *self.node_mut(node) = Node::leaf_from(items);
                return InsertOutcome::Reinsert(evicted);
            }
            let (a, _mbr_a, b, mbr_b) =
                split(self.config.split, items, self.config.min_entries, |i| i.mbr);
            *self.node_mut(node) = Node::leaf_from(a);
            let sibling = self.alloc(Node::leaf_from(b));
            return InsertOutcome::Split(mbr_b, sibling);
        }

        // Choose the child needing the least enlargement (ties: least area).
        let (chosen, child_id) = {
            let Node::Internal { mbrs, children } = self.node(node) else {
                unreachable!("positive depth must be internal");
            };
            let mut best = 0;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for (i, c_mbr) in mbrs.iter().enumerate() {
                let enl = c_mbr.enlargement(mbr);
                let area = c_mbr.area();
                if enl < best_enl || (enl == best_enl && area < best_area) {
                    best = i;
                    best_enl = enl;
                    best_area = area;
                }
            }
            (best, children[best])
        };

        let outcome = self.insert_rec(child_id, mbr, value, depth - 1, allow_reinsert);

        // Refresh the chosen child's MBR (it changed in every outcome:
        // grown by the insert, or shrunk by an eviction).
        let new_child_mbr = self.node_mbr(child_id);
        let max_entries = self.config.max_entries;
        let Node::Internal { mbrs, children } = self.node_mut(node) else {
            unreachable!()
        };
        mbrs[chosen] = new_child_mbr;

        match outcome {
            InsertOutcome::Done => InsertOutcome::Done,
            InsertOutcome::Reinsert(evicted) => InsertOutcome::Reinsert(evicted),
            InsertOutcome::Split(sib_mbr, sib_id) => {
                mbrs.push(sib_mbr);
                children.push(sib_id);
                if children.len() > max_entries {
                    let overflow = self.node_mut(node).take_internal_children();
                    let (a, _mbr_a, b, mbr_b) =
                        split(self.config.split, overflow, self.config.min_entries, |c| {
                            c.mbr
                        });
                    *self.node_mut(node) = Node::internal_from(a);
                    let sibling = self.alloc(Node::internal_from(b));
                    return InsertOutcome::Split(mbr_b, sibling);
                }
                InsertOutcome::Done
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariants (used by tests)
    // ------------------------------------------------------------------

    /// Verifies the structural invariants of the tree, panicking with a
    /// description on the first violation. Intended for tests.
    pub fn check_invariants(&self) {
        if self.len == 0 {
            return;
        }
        let mut counted = 0;
        self.check_node(self.root, self.height, true, &mut counted);
        assert_eq!(counted, self.len, "len() disagrees with stored items");
    }

    fn check_node(&self, ix: NodeIx, depth: usize, is_root: bool, counted: &mut usize) -> Aabb<D> {
        match self.node(ix) {
            Node::Leaf { items } => {
                assert_eq!(depth, 0, "leaf above leaf level");
                if !is_root {
                    assert!(
                        items.len() >= self.config.min_entries,
                        "leaf underflow: {} < {}",
                        items.len(),
                        self.config.min_entries
                    );
                }
                assert!(items.len() <= self.config.max_entries, "leaf overflow");
                *counted += items.len();
                fold_mbr(items.iter().map(|i| i.mbr)).expect("empty non-root leaf")
            }
            Node::Internal { mbrs, children } => {
                assert!(depth > 0, "internal node at leaf level");
                assert_eq!(
                    mbrs.len(),
                    children.len(),
                    "internal SoA arrays out of sync"
                );
                let min = if is_root { 2 } else { self.config.min_entries };
                assert!(
                    children.len() >= min,
                    "internal underflow: {} < {min}",
                    children.len()
                );
                assert!(
                    children.len() <= self.config.max_entries,
                    "internal overflow"
                );
                let mut acc: Option<Aabb<D>> = None;
                for (c_mbr, c_ix) in mbrs.iter().zip(children) {
                    let actual = self.check_node(*c_ix, depth - 1, false, counted);
                    assert_eq!(actual, *c_mbr, "stored child MBR differs from computed MBR");
                    acc = Some(match acc {
                        None => actual,
                        Some(a) => a.union(&actual),
                    });
                }
                acc.expect("internal node with no children")
            }
        }
    }
}

/// Result of a recursive insertion step.
enum InsertOutcome<T, const D: usize> {
    /// Inserted without structural change above this node.
    Done,
    /// The node split; the parent must adopt the new sibling.
    Split(Aabb<D>, NodeIx),
    /// R* forced reinsertion: these evicted items must be re-inserted
    /// from the root.
    Reinsert(Vec<Item<T, D>>),
}

/// Removes the `count` items whose centres lie farthest from the node's
/// centre (R* eviction order), returning them farthest-first.
fn evict_farthest<T, const D: usize>(items: &mut Vec<Item<T, D>>, count: usize) -> Vec<Item<T, D>> {
    debug_assert!(count < items.len());
    let node_mbr = fold_mbr(items.iter().map(|i| i.mbr)).expect("non-empty node");
    let center = node_mbr.center();
    let dist = |m: &Aabb<D>| {
        let c = m.center();
        let mut d = 0.0;
        for i in 0..D {
            let g = c[i] - center[i];
            d += g * g;
        }
        d
    };
    // Sort ascending by distance; split off the farthest `count`.
    items.sort_by(|a, b| dist(&a.mbr).total_cmp(&dist(&b.mbr)));
    let mut evicted = items.split_off(items.len() - count);
    evicted.reverse(); // farthest first, per the R* paper's "close reinsert"
    evicted
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
    fn empty_tree_queries() {
        let t: RTree<u32, 2> = RTree::new();
        assert!(t.is_empty());
        assert!(t.search(&Aabb::new([-1e9, -1e9], [1e9, 1e9])).is_empty());
        t.check_invariants();
    }

    #[test]
    fn insert_and_range_search() {
        let t = grid_tree(1000);
        t.check_invariants();
        assert_eq!(t.len(), 1000);
        let hits = t.search(&Aabb::new([0.0, 0.0], [4.0, 1.0]));
        assert_eq!(hits.len(), 10); // 5 × 2 grid points
        let all = t.search(&Aabb::new([-1.0, -1.0], [1000.0, 1000.0]));
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn duplicate_boxes_are_kept_separately() {
        let mut t: RTree<u32, 1> = RTree::new();
        for i in 0..20 {
            t.insert(Aabb::from_point([1.0]), i);
        }
        assert_eq!(t.search(&Aabb::from_point([1.0])).len(), 20);
        t.check_invariants();
    }

    #[test]
    fn linear_split_config_works() {
        let mut t: RTree<u32, 2> = RTree::with_config(RTreeConfig {
            split: SplitStrategy::Linear,
            ..RTreeConfig::default()
        });
        for i in 0..500u32 {
            t.insert(Aabb::from_point([f64::from(i % 50), f64::from(i / 50)]), i);
        }
        t.check_invariants();
        assert_eq!(t.search(&Aabb::new([0.0, 0.0], [49.0, 9.0])).len(), 500);
    }

    #[test]
    fn height_grows_logarithmically() {
        let t = grid_tree(10_000);
        let h = t.stats().height;
        // M = 16: height should be small.
        assert!((3..=7).contains(&h), "height {h}");
    }

    #[test]
    fn three_dimensional_segments() {
        // FoV-style degenerate boxes: a point in space, an interval in time.
        let mut t: RTree<&'static str, 3> = RTree::new();
        t.insert(Aabb::new([1.0, 2.0, 0.0], [1.0, 2.0, 10.0]), "a");
        t.insert(Aabb::new([1.0, 2.0, 20.0], [1.0, 2.0, 30.0]), "b");
        t.insert(Aabb::new([5.0, 5.0, 0.0], [5.0, 5.0, 100.0]), "c");
        // Query around (1, 2) in t ∈ [5, 25] finds a and b.
        let hits = t.search(&Aabb::new([0.0, 1.0, 5.0], [2.0, 3.0, 25.0]));
        assert_eq!(hits.len(), 2);
        // Time-disjoint query finds nothing.
        assert!(t
            .search(&Aabb::new([0.0, 1.0, 11.0], [2.0, 3.0, 19.0]))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn invalid_config_rejected() {
        let _: RTree<u32, 2> = RTree::with_config(RTreeConfig {
            max_entries: 8,
            min_entries: 5,
            split: SplitStrategy::Quadratic,
            reinsert_fraction: 0.0,
        });
    }

    #[test]
    fn forced_reinsertion_preserves_correctness() {
        let mut t: RTree<u32, 2> = RTree::with_config(RTreeConfig::rstar());
        for i in 0..3000u32 {
            // Clustered insert order: the worst case reinsert targets.
            let cluster = f64::from(i % 7) * 200.0;
            let x = cluster + f64::from(i % 13);
            let y = f64::from(i % 11) * 3.0;
            t.insert(Aabb::from_point([x, y]), i);
        }
        t.check_invariants();
        assert_eq!(t.len(), 3000);
        let all = t.search(&Aabb::new([-1e6, -1e6], [1e6, 1e6]));
        assert_eq!(all.len(), 3000);
        // Spot query matches a naive filter.
        let q = Aabb::new([200.0, 0.0], [213.0, 12.0]);
        let got = t.search(&q).len();
        let want = (0..3000u32)
            .filter(|i| {
                let x = f64::from(i % 7) * 200.0 + f64::from(i % 13);
                let y = f64::from(i % 11) * 3.0;
                q.contains_point(&[x, y])
            })
            .count();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "reinsert_fraction")]
    fn invalid_reinsert_fraction_rejected() {
        let _: RTree<u32, 2> = RTree::with_config(RTreeConfig {
            reinsert_fraction: 0.6,
            ..RTreeConfig::default()
        });
    }
}
