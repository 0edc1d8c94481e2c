//! Arena node storage.
//!
//! Nodes live in one contiguous `Vec<Node>` owned by the tree and are
//! addressed by [`NodeIx`] handles — a `NonZeroUsize` wrapper (stored
//! off-by-one) so `Option<NodeIx>` is pointer-sized and accidental use of
//! a "null" handle is unrepresentable.
//!
//! Entry layout differs by level, each matching how traversals touch it:
//!
//! * **Leaves** store entries inline as one `Vec<Item>` — a scan reads
//!   the box and, on a match, finds the payload on the same cache line
//!   instead of a second parallel array. Leaf scans dominate range
//!   queries (there are `max_entries`× more leaf entries than internal
//!   ones), and measured on the `rtree_arena` ablation the interleaved
//!   form beats a split `Vec<Aabb>`/`Vec<T>` pair.
//! * **Internal nodes** keep struct-of-arrays: the dense `Vec<Aabb<D>>`
//!   is scanned by every pruning pass (choose-subtree, traversal) while
//!   the child handles are touched only on a match.
//!
//! [`Item`] and [`Child`] also serve as *transient* entries: the split
//! algorithms, forced reinsertion, and STR tiling all shuffle whole
//! entries. Internal nodes convert at the boundary via
//! [`Node::internal_from`] / [`Node::take_internal_children`].

use std::num::NonZeroUsize;

use crate::mbr::Aabb;

/// Handle to a node slot in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct NodeIx(NonZeroUsize);

impl NodeIx {
    /// Wraps an arena index (stored off-by-one for the niche).
    #[inline]
    pub(crate) fn new(index: usize) -> Self {
        NodeIx(NonZeroUsize::new(index.wrapping_add(1)).expect("arena index overflow"))
    }

    /// The arena index this handle refers to.
    #[inline]
    pub(crate) fn get(self) -> usize {
        self.0.get() - 1
    }
}

/// A leaf entry: a payload with its bounding box. Leaves store these
/// inline; [`crate::RTree::search_leaves`] lends them out read-only.
#[derive(Debug, Clone)]
pub struct Item<T, const D: usize> {
    /// The entry's box.
    pub mbr: Aabb<D>,
    /// The stored payload.
    pub value: T,
}

/// An internal child handle with the child's bounding box (transient AoS
/// form).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Child<const D: usize> {
    pub(crate) mbr: Aabb<D>,
    pub(crate) node: NodeIx,
}

/// One arena node (leaf entries inline, internal entries SoA).
#[derive(Debug, Clone)]
pub(crate) enum Node<T, const D: usize> {
    Leaf {
        items: Vec<Item<T, D>>,
    },
    Internal {
        mbrs: Vec<Aabb<D>>,
        children: Vec<NodeIx>,
    },
}

impl<T, const D: usize> Node<T, D> {
    /// An empty leaf — the state of a fresh tree's root and of freed slots.
    pub(crate) fn empty_leaf() -> Self {
        Node::Leaf { items: Vec::new() }
    }

    /// Builds a leaf from items (split / bulk-load output).
    pub(crate) fn leaf_from(items: Vec<Item<T, D>>) -> Self {
        Node::Leaf { items }
    }

    /// Builds an internal node from AoS children (split / bulk-load output).
    pub(crate) fn internal_from(entries: Vec<Child<D>>) -> Self {
        let mut mbrs = Vec::with_capacity(entries.len());
        let mut children = Vec::with_capacity(entries.len());
        for c in entries {
            mbrs.push(c.mbr);
            children.push(c.node);
        }
        Node::Internal { mbrs, children }
    }

    /// Number of entries (items or children).
    #[inline]
    pub(crate) fn entry_count(&self) -> usize {
        match self {
            Node::Leaf { items } => items.len(),
            Node::Internal { mbrs, .. } => mbrs.len(),
        }
    }

    /// The union of this node's entry boxes; `None` when empty.
    pub(crate) fn fold_entry_mbr(&self) -> Option<Aabb<D>> {
        match self {
            Node::Leaf { items } => fold_mbr(items.iter().map(|i| i.mbr)),
            Node::Internal { mbrs, .. } => fold_mbr(mbrs.iter().copied()),
        }
    }

    /// Drains a leaf into its items, leaving it empty. Panics on internal
    /// nodes.
    pub(crate) fn take_leaf_items(&mut self) -> Vec<Item<T, D>> {
        let Node::Leaf { items } = self else {
            unreachable!("take_leaf_items on internal node");
        };
        std::mem::take(items)
    }

    /// Drains an internal node into AoS children, leaving it empty. Panics
    /// on leaves.
    pub(crate) fn take_internal_children(&mut self) -> Vec<Child<D>> {
        let Node::Internal { mbrs, children } = self else {
            unreachable!("take_internal_children on leaf node");
        };
        std::mem::take(mbrs)
            .into_iter()
            .zip(std::mem::take(children))
            .map(|(mbr, node)| Child { mbr, node })
            .collect()
    }
}

/// Folds a set of boxes into their union; `None` when empty.
pub(crate) fn fold_mbr<const D: usize>(mut mbrs: impl Iterator<Item = Aabb<D>>) -> Option<Aabb<D>> {
    let first = mbrs.next()?;
    Some(mbrs.fold(first, |acc, m| acc.union(&m)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ix_roundtrip_and_niche() {
        for i in [0usize, 1, 7, 1 << 20] {
            assert_eq!(NodeIx::new(i).get(), i);
        }
        // The whole point of NonZeroUsize handles: Option costs nothing.
        assert_eq!(
            std::mem::size_of::<Option<NodeIx>>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn leaf_roundtrip() {
        let items: Vec<Item<u32, 2>> = (0..5)
            .map(|i| Item {
                mbr: Aabb::from_point([f64::from(i), 0.0]),
                value: i,
            })
            .collect();
        let mut node = Node::leaf_from(items);
        assert_eq!(node.entry_count(), 5);
        assert_eq!(
            node.fold_entry_mbr(),
            Some(Aabb::new([0.0, 0.0], [4.0, 0.0]))
        );
        let back = node.take_leaf_items();
        assert_eq!(back.len(), 5);
        assert_eq!(node.entry_count(), 0);
        assert!(back.iter().enumerate().all(|(i, it)| it.value == i as u32));
    }

    #[test]
    fn internal_soa_roundtrip() {
        let entries: Vec<Child<2>> = (0..4)
            .map(|i| Child {
                mbr: Aabb::from_point([f64::from(i), 1.0]),
                node: NodeIx::new(i as usize),
            })
            .collect();
        let mut node: Node<u32, 2> = Node::internal_from(entries);
        assert_eq!(node.entry_count(), 4);
        let back = node.take_internal_children();
        assert!(back.iter().enumerate().all(|(i, c)| c.node.get() == i));
    }
}
