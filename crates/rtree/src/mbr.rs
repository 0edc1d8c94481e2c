//! Axis-aligned minimum bounding rectangles in `D` dimensions.
//!
//! Indexed `0..D` loops are used throughout: they address two or three
//! parallel fixed-size arrays at once, which iterator zips only obscure.
#![allow(clippy::needless_range_loop)]

/// An axis-aligned bounding box (MBR) described by its per-dimension
/// minima and maxima, exactly as the paper stores FoV rectangles
/// (`min[]`/`max[]` double arrays, §V-A).
///
/// Degenerate boxes (`min == max` in some or all dimensions) are valid —
/// representative FoVs are stored as 3-D line segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<const D: usize> {
    /// Per-dimension lower bounds.
    pub min: [f64; D],
    /// Per-dimension upper bounds.
    pub max: [f64; D],
}

impl<const D: usize> Aabb<D> {
    /// Creates a box from bounds.
    ///
    /// # Panics
    /// Panics if any `min[i] > max[i]` or any bound is NaN.
    pub fn new(min: [f64; D], max: [f64; D]) -> Self {
        for i in 0..D {
            assert!(
                min[i] <= max[i],
                "invalid Aabb: min[{i}] = {} > max[{i}] = {}",
                min[i],
                max[i]
            );
        }
        Aabb { min, max }
    }

    /// A degenerate box covering a single point.
    #[inline]
    pub fn from_point(p: [f64; D]) -> Self {
        Aabb::new(p, p)
    }

    /// The smallest box containing both operands.
    pub fn union(&self, other: &Aabb<D>) -> Aabb<D> {
        let mut min = self.min;
        let mut max = self.max;
        for i in 0..D {
            min[i] = min[i].min(other.min[i]);
            max[i] = max[i].max(other.max[i]);
        }
        Aabb { min, max }
    }

    /// Whether the two boxes share any point (closed-interval semantics:
    /// touching boxes intersect).
    pub fn intersects(&self, other: &Aabb<D>) -> bool {
        for i in 0..D {
            if self.max[i] < other.min[i] || other.max[i] < self.min[i] {
                return false;
            }
        }
        true
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Aabb<D>) -> bool {
        for i in 0..D {
            if other.min[i] < self.min[i] || other.max[i] > self.max[i] {
                return false;
            }
        }
        true
    }

    /// Whether the point lies inside the box (boundary included).
    pub fn contains_point(&self, p: &[f64; D]) -> bool {
        for i in 0..D {
            if p[i] < self.min[i] || p[i] > self.max[i] {
                return false;
            }
        }
        true
    }

    /// Hyper-volume (product of extents). Zero for degenerate boxes.
    pub fn area(&self) -> f64 {
        let mut a = 1.0;
        for i in 0..D {
            a *= self.max[i] - self.min[i];
        }
        a
    }

    /// Sum of extents (the R*-tree "margin"; useful for split quality).
    pub fn margin(&self) -> f64 {
        let mut m = 0.0;
        for i in 0..D {
            m += self.max[i] - self.min[i];
        }
        m
    }

    /// Area of the intersection with `other`, 0 if disjoint.
    pub fn overlap_area(&self, other: &Aabb<D>) -> f64 {
        let mut a = 1.0;
        for i in 0..D {
            let lo = self.min[i].max(other.min[i]);
            let hi = self.max[i].min(other.max[i]);
            if hi < lo {
                return 0.0;
            }
            a *= hi - lo;
        }
        a
    }

    /// How much this box's area would grow to accommodate `other`
    /// (Guttman's insertion heuristic).
    #[inline]
    pub fn enlargement(&self, other: &Aabb<D>) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Box centre.
    pub fn center(&self) -> [f64; D] {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = 0.5 * (self.min[i] + self.max[i]);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_covers_both() {
        let a = Aabb::new([0.0, 0.0], [1.0, 1.0]);
        let b = Aabb::new([2.0, -1.0], [3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains(&a) && u.contains(&b));
        assert_eq!(u, Aabb::new([0.0, -1.0], [3.0, 1.0]));
    }

    #[test]
    fn intersection_is_closed() {
        let a = Aabb::new([0.0], [1.0]);
        let b = Aabb::new([1.0], [2.0]);
        assert!(a.intersects(&b)); // touching counts
        let c = Aabb::new([1.0 + 1e-12], [2.0]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn degenerate_boxes_behave() {
        let p = Aabb::from_point([3.0, 4.0, 5.0]);
        assert_eq!(p.area(), 0.0);
        assert!(p.intersects(&p));
        assert!(p.contains_point(&[3.0, 4.0, 5.0]));
        assert!(!p.contains_point(&[3.0, 4.0, 5.1]));
    }

    #[test]
    fn area_margin_center() {
        let a = Aabb::new([0.0, 0.0, 0.0], [2.0, 3.0, 4.0]);
        assert_eq!(a.area(), 24.0);
        assert_eq!(a.margin(), 9.0);
        assert_eq!(a.center(), [1.0, 1.5, 2.0]);
    }

    #[test]
    fn overlap_area_cases() {
        let a = Aabb::new([0.0, 0.0], [2.0, 2.0]);
        let b = Aabb::new([1.0, 1.0], [3.0, 3.0]);
        assert_eq!(a.overlap_area(&b), 1.0);
        let c = Aabb::new([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(a.overlap_area(&c), 0.0);
        // Touching boxes overlap with zero area.
        let d = Aabb::new([2.0, 0.0], [4.0, 2.0]);
        assert_eq!(a.overlap_area(&d), 0.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = Aabb::new([0.0, 0.0], [10.0, 10.0]);
        let b = Aabb::new([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid Aabb")]
    fn inverted_bounds_panic() {
        Aabb::new([1.0], [0.0]);
    }
}
