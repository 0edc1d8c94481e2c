//! A from-scratch N-dimensional R-tree (Guttman 1984), built for SWAG's
//! spatio-temporal FoV index (paper §V).
//!
//! The tree stores axis-aligned bounding boxes ([`Aabb`]) with arbitrary
//! payloads and supports:
//!
//! * dynamic insertion with **quadratic** or **linear** node splitting
//!   ([`RTree::insert`], [`SplitStrategy`]);
//! * **range queries** — all items whose box intersects a query box
//!   ([`RTree::search`], [`RTree::search_with`]), or the leaves holding
//!   them ([`RTree::search_leaves`]);
//! * **k-nearest-neighbour** queries via best-first traversal
//!   ([`RTree::nearest_k`]);
//! * **deletion** with tree condensation and reinsertion
//!   ([`RTree::remove`]);
//! * **Sort-Tile-Recursive bulk loading** ([`RTree::bulk_load`]).
//!
//! Nodes live in a flat arena (`Vec<Node>`) addressed by `NonZeroUsize`
//! index handles; within each node the entry boxes form a dense
//! struct-of-arrays slice scanned by every traversal, with payloads in a
//! parallel vector touched only on a match. Range searches reuse a
//! per-thread traversal stack, so steady-state queries do not allocate.
//!
//! The dimension is a const generic: SWAG uses `D = 3`
//! (`[longitude, latitude, time]`), but the tree is dimension-agnostic and
//! tested in 1-4 dimensions.
//!
//! ```
//! use swag_rtree::{Aabb, RTree};
//!
//! let mut tree: RTree<u32, 2> = RTree::new();
//! for i in 0..100u32 {
//!     let x = f64::from(i % 10);
//!     let y = f64::from(i / 10);
//!     tree.insert(Aabb::from_point([x, y]), i);
//! }
//! let hits = tree.search(&Aabb::new([0.0, 0.0], [2.0, 1.0]));
//! assert_eq!(hits.len(), 6); // the 3×2 grid corner
//! let (nearest, _) = tree.nearest_k([4.2, 4.2], 1)[0];
//! assert_eq!(*nearest, 44);
//! ```

pub mod bulk;
pub mod mbr;
mod node;
pub mod search;
pub mod split;
pub mod tree;

pub use mbr::Aabb;
pub use node::Item;
pub use search::SearchStats;
pub use split::SplitStrategy;
pub use tree::{RTree, RTreeConfig, RTreeStats};
