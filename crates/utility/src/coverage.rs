//! Spatial coverage analytics: which parts of the city are filmed?
//!
//! Complements the angular × temporal utility of [`crate::rect`] with a
//! plan-view answer: rasterise every segment's view sector onto a metre
//! grid and count how many segments cover each cell. Deployments use this
//! to spot blind zones and to weight incentives towards uncovered areas.

use swag_core::{sector_contains, CameraProfile, RepFov};
use swag_geo::{LatLon, LocalFrame, Vec2};

/// A plan-view coverage raster.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageGrid {
    origin: LatLon,
    frame: LocalFrame,
    half_extent_m: f64,
    cell_m: f64,
    cells_per_side: usize,
    counts: Vec<u32>,
}

impl CoverageGrid {
    /// Creates an empty grid covering the square
    /// `[-half_extent_m, half_extent_m]²` around `origin` with square
    /// cells of `cell_m` metres.
    ///
    /// # Panics
    /// Panics if the extents are not positive or the grid would exceed
    /// 16 M cells.
    pub fn new(origin: LatLon, half_extent_m: f64, cell_m: f64) -> Self {
        assert!(
            half_extent_m > 0.0 && cell_m > 0.0,
            "extents must be positive"
        );
        let cells_per_side = ((2.0 * half_extent_m) / cell_m).ceil() as usize;
        assert!(
            cells_per_side * cells_per_side <= 16_000_000,
            "grid too fine: {cells_per_side}² cells"
        );
        CoverageGrid {
            origin,
            frame: LocalFrame::new(origin),
            half_extent_m,
            cell_m,
            cells_per_side,
            counts: vec![0; cells_per_side * cells_per_side],
        }
    }

    /// Cells per side.
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Coverage count of the cell containing `p` (0 outside the grid).
    pub fn count_at(&self, p: LatLon) -> u32 {
        match self.cell_index(self.frame.to_local(p)) {
            Some(i) => self.counts[i],
            None => 0,
        }
    }

    /// Adds one segment's view sector to the raster.
    pub fn add(&mut self, rep: &RepFov, cam: &CameraProfile) {
        // Only cells inside the sector's bounding square can be covered.
        let center = self.frame.to_local(rep.fov.p);
        let r = cam.view_radius_m;
        let lo_x = self.axis_cell(center.x - r);
        let hi_x = self.axis_cell(center.x + r);
        let lo_y = self.axis_cell(center.y - r);
        let hi_y = self.axis_cell(center.y + r);
        for cy in lo_y..=hi_y {
            for cx in lo_x..=hi_x {
                let p = self.cell_center(cx, cy);
                if sector_contains(&rep.fov, cam, self.frame.from_local(p)) {
                    self.counts[cy * self.cells_per_side + cx] += 1;
                }
            }
        }
    }

    /// Fraction of cells covered by at least `min_count` segments.
    pub fn covered_fraction(&self, min_count: u32) -> f64 {
        let covered = self.counts.iter().filter(|&&c| c >= min_count).count();
        covered as f64 / self.counts.len() as f64
    }

    /// The most-covered cell: `(cell_centre, count)`.
    pub fn hottest(&self) -> (LatLon, u32) {
        let (idx, &count) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("grid has cells");
        let (cx, cy) = (idx % self.cells_per_side, idx / self.cells_per_side);
        (self.frame.from_local(self.cell_center(cx, cy)), count)
    }

    /// Serialises the raster as CSV (rows south→north, columns west→east).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.counts.len() * 3);
        for cy in 0..self.cells_per_side {
            let row: Vec<String> = (0..self.cells_per_side)
                .map(|cx| self.counts[cy * self.cells_per_side + cx].to_string())
                .collect();
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    fn axis_cell(&self, coord_m: f64) -> usize {
        let idx = ((coord_m + self.half_extent_m) / self.cell_m).floor();
        idx.clamp(0.0, (self.cells_per_side - 1) as f64) as usize
    }

    fn cell_index(&self, p: Vec2) -> Option<usize> {
        if p.x.abs() > self.half_extent_m || p.y.abs() > self.half_extent_m {
            return None;
        }
        Some(self.axis_cell(p.y) * self.cells_per_side + self.axis_cell(p.x))
    }

    fn cell_center(&self, cx: usize, cy: usize) -> Vec2 {
        Vec2::new(
            -self.half_extent_m + (cx as f64 + 0.5) * self.cell_m,
            -self.half_extent_m + (cy as f64 + 0.5) * self.cell_m,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_core::Fov;

    fn origin() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    fn cam() -> CameraProfile {
        CameraProfile::smartphone() // α = 25°, R = 100 m
    }

    #[test]
    fn empty_grid_is_uncovered() {
        let g = CoverageGrid::new(origin(), 200.0, 10.0);
        assert_eq!(g.covered_fraction(1), 0.0);
        assert_eq!(g.count_at(origin()), 0);
        assert_eq!(g.cells_per_side(), 40);
    }

    #[test]
    fn sector_raster_covers_the_right_cells() {
        let mut g = CoverageGrid::new(origin(), 200.0, 10.0);
        // Camera at the origin looking north.
        g.add(&RepFov::new(0.0, 10.0, Fov::new(origin(), 0.0)), &cam());
        // On-axis, mid-range: covered.
        assert!(g.count_at(origin().offset(0.0, 50.0)) >= 1);
        // Behind the camera: not covered.
        assert_eq!(g.count_at(origin().offset(180.0, 50.0)), 0);
        // Beyond the radius: not covered.
        assert_eq!(g.count_at(origin().offset(0.0, 150.0)), 0);
        // The covered fraction ≈ sector area / grid area.
        let sector_area = std::f64::consts::PI * 100.0_f64.powi(2) * (50.0 / 360.0);
        let grid_area = 400.0 * 400.0;
        let expect = sector_area / grid_area;
        let got = g.covered_fraction(1);
        assert!(
            (got - expect).abs() < 0.35 * expect,
            "covered {got:.4} vs expected ≈ {expect:.4}"
        );
    }

    #[test]
    fn overlapping_sectors_accumulate() {
        let mut g = CoverageGrid::new(origin(), 200.0, 10.0);
        for _ in 0..3 {
            g.add(&RepFov::new(0.0, 10.0, Fov::new(origin(), 0.0)), &cam());
        }
        let probe = origin().offset(0.0, 50.0);
        assert_eq!(g.count_at(probe), 3);
        let (hot, count) = g.hottest();
        assert_eq!(count, 3);
        assert!(g.count_at(hot) == 3);
    }

    #[test]
    fn a_rep_across_the_antimeridian_covers_cells_beside_the_origin() {
        // The origin sits 0.0005° west of ±180°, the camera 0.0005° east
        // of it (≈ 110 m), looking west at the origin. Differenced the
        // long way, the camera landed 39 466 km west and covered nothing.
        let origin = LatLon::new(10.0, 179.9995);
        let mut g = CoverageGrid::new(origin, 300.0, 20.0);
        let camera = LatLon::new(10.0, -179.9995);
        g.add(&RepFov::new(0.0, 10.0, Fov::new(camera, 270.0)), &cam());
        // 50 m in front of the camera, just across the seam.
        assert_eq!(g.count_at(camera.offset(270.0, 50.0)), 1);
        assert_eq!(g.count_at(origin.offset(90.0, 40.0)), 1);
        // Behind the camera, and beyond its radius west of the origin.
        assert_eq!(g.count_at(camera.offset(90.0, 50.0)), 0);
        assert_eq!(g.count_at(origin.offset(270.0, 50.0)), 0);
    }

    #[test]
    fn out_of_grid_probes_are_zero() {
        let mut g = CoverageGrid::new(origin(), 100.0, 10.0);
        g.add(&RepFov::new(0.0, 1.0, Fov::new(origin(), 0.0)), &cam());
        assert_eq!(g.count_at(origin().offset(0.0, 5000.0)), 0);
    }

    #[test]
    fn csv_shape_matches_grid() {
        let g = CoverageGrid::new(origin(), 50.0, 10.0);
        let csv = g.to_csv();
        assert_eq!(csv.lines().count(), 10);
        assert!(csv.lines().all(|l| l.split(',').count() == 10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_cell() {
        CoverageGrid::new(origin(), 100.0, 0.0);
    }
}
