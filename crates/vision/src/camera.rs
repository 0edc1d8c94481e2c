//! Ray-casting column renderer.
//!
//! Produces real RGB frame buffers from a camera pose: one ray per pixel
//! column, perspective-scaled landmark sprites, world-anchored surface
//! stripes (so frame differencing sees texture move), sky and ground
//! gradients. Per-pixel cost scales with resolution — the property the
//! paper's segmentation-cost experiment (Fig. 6(a)) depends on.

use swag_geo::Vec2;

use crate::frame::{Frame, Resolution};
use crate::world::World;

/// Camera height above ground, metres (controls how far object bases dip
/// below the horizon).
const CAMERA_HEIGHT_M: f64 = 1.7;

/// Deterministic brightness for a world-space texture cell: aperiodic, so
/// camera motion never re-aligns the texture with a previous frame.
#[inline]
fn cell_brightness(cx: i64, cy: i64) -> f64 {
    let mut h = (cx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (cy as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    // Map to [0.65, 1.0].
    0.65 + 0.35 * (h % 1024) as f64 / 1023.0
}

/// What one pixel column sees.
#[derive(Debug, Clone, Copy)]
struct ColumnSample {
    /// Hit colour after distance shading and world-anchored striping.
    color: Option<[u8; 3]>,
    /// Rows [top, bottom) covered by the hit object, in pixels.
    top: usize,
    bottom: usize,
    /// First row of the distant skyline backdrop (azimuth-dependent,
    /// parallax-free), ending at the horizon.
    skyline_top: usize,
    /// Unit direction of this column's ray (for ground-plane texturing).
    dir: Vec2,
}

/// Shared per-frame context handed to the row-filling workers.
#[derive(Debug, Clone, Copy)]
struct FrameCtx {
    horizon: usize,
    focal: f64,
    position: Vec2,
    max_dist_m: f64,
}

/// Renders frames of a [`World`] from camera poses.
#[derive(Debug, Clone)]
pub struct Renderer<'w> {
    world: &'w World,
    half_angle_deg: f64,
    max_dist_m: f64,
}

impl<'w> Renderer<'w> {
    /// Creates a renderer with the camera's half viewing angle `α` and
    /// maximum render distance (the radius of view `R`).
    pub fn new(world: &'w World, half_angle_deg: f64, max_dist_m: f64) -> Self {
        assert!(half_angle_deg > 0.0 && half_angle_deg < 90.0);
        assert!(max_dist_m > 0.0);
        Renderer {
            world,
            half_angle_deg,
            max_dist_m,
        }
    }

    /// Renders one frame sequentially.
    pub fn render(&self, position: Vec2, azimuth_deg: f64, res: Resolution) -> Frame {
        let (w, h) = res.dims();
        let mut frame = Frame::new(w, h);
        let cols = self.sample_columns(position, azimuth_deg, w, h);
        let ctx = self.frame_ctx(position, h);
        fill_rows(frame.pixels_mut(), 0, h, w, ctx, &cols);
        frame
    }

    fn frame_ctx(&self, position: Vec2, h: usize) -> FrameCtx {
        FrameCtx {
            horizon: h / 2,
            focal: h as f64 * 0.8,
            position,
            max_dist_m: self.max_dist_m,
        }
    }

    /// Renders one frame using `threads` worker threads over row bands
    /// (scoped threads; falls back to sequential for 1).
    pub fn render_par(
        &self,
        position: Vec2,
        azimuth_deg: f64,
        res: Resolution,
        threads: usize,
    ) -> Frame {
        if threads <= 1 {
            return self.render(position, azimuth_deg, res);
        }
        let (w, h) = res.dims();
        let mut frame = Frame::new(w, h);
        let cols = self.sample_columns(position, azimuth_deg, w, h);
        let ctx = self.frame_ctx(position, h);
        let rows_per_band = h.div_ceil(threads);
        let band_bytes = rows_per_band * w * 3;
        let width = w;
        let cols_ref = &cols;
        std::thread::scope(|s| {
            for (band, chunk) in frame.pixels_mut().chunks_mut(band_bytes).enumerate() {
                s.spawn(move || {
                    let y0 = band * rows_per_band;
                    let y1 = (y0 + chunk.len() / (width * 3)).min(h);
                    fill_rows(chunk, y0, y1, width, ctx, cols_ref);
                });
            }
        });
        frame
    }

    /// Renders a whole pose sequence (a video) sequentially.
    pub fn render_trace(&self, poses: &[(Vec2, f64)], res: Resolution) -> Vec<Frame> {
        poses
            .iter()
            .map(|&(p, az)| self.render(p, az, res))
            .collect()
    }

    /// Renders a pose sequence with `threads` workers, one frame per task
    /// (scoped threads over chunks). Output order matches input.
    pub fn render_trace_par(
        &self,
        poses: &[(Vec2, f64)],
        res: Resolution,
        threads: usize,
    ) -> Vec<Frame> {
        let threads = threads.max(1);
        if threads == 1 || poses.len() < 2 {
            return self.render_trace(poses, res);
        }
        let (w, h) = res.dims();
        let mut frames: Vec<Frame> = (0..poses.len()).map(|_| Frame::new(w, h)).collect();
        let chunk = poses.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (ps, out) in poses.chunks(chunk).zip(frames.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (&(p, az), slot) in ps.iter().zip(out.iter_mut()) {
                        *slot = self.render(p, az, res);
                    }
                });
            }
        });
        frames
    }

    /// One ray cast per column; precomputes shading and vertical extents.
    fn sample_columns(
        &self,
        position: Vec2,
        azimuth_deg: f64,
        w: usize,
        h: usize,
    ) -> Vec<ColumnSample> {
        let horizon = h / 2;
        // Vertical focal length in pixels: a landmark of height `x` metres
        // at distance `d` spans `focal · x / d` pixels above the horizon.
        let focal = h as f64 * 0.8;
        (0..w)
            .map(|x| {
                // Column azimuth spans [θ − α, θ + α].
                let frac = (x as f64 + 0.5) / w as f64;
                let az = azimuth_deg + self.half_angle_deg * (2.0 * frac - 1.0);
                // Distant skyline: a smooth pseudo-random ridge profile as
                // a function of absolute azimuth. Being at infinity it
                // rotates with the camera but shows no parallax under
                // translation — exactly how a real city backdrop behaves.
                let azr = az.to_radians();
                let ridge = 0.16
                    + 0.09 * (3.0 * azr).sin()
                    + 0.05 * (7.0 * azr + 1.3).sin()
                    + 0.03 * (13.0 * azr + 4.1).sin();
                let skyline_top = horizon - ((ridge.max(0.02)) * h as f64) as usize;
                let dir = Vec2::from_azimuth_deg(az);
                match self.world.raycast(position, az, self.max_dist_m) {
                    None => ColumnSample {
                        color: None,
                        top: horizon,
                        bottom: horizon,
                        skyline_top,
                        dir,
                    },
                    Some(hit) => {
                        let lm = self.world.landmarks()[hit.landmark];
                        let dist = hit.distance_m.max(1.0);
                        let above = (focal * lm.height_m / dist).round() as usize;
                        let below = (focal * CAMERA_HEIGHT_M / dist).round() as usize;
                        let top = horizon.saturating_sub(above);
                        let bottom = (horizon + below).min(h);

                        // Distance shading.
                        let shade = (1.0 - dist / (self.max_dist_m * 1.2)).clamp(0.2, 1.0);
                        // World-anchored stripe texture: brightness bands
                        // fixed to the surface point, so they move across
                        // the image as the camera moves.
                        let hit_point = position + Vec2::from_azimuth_deg(az) * hit.distance_m;
                        let tex = cell_brightness(
                            (hit_point.x * 1.5).floor() as i64,
                            (hit_point.y * 1.5).floor() as i64,
                        );
                        let scale = shade * tex;
                        let color = [
                            (f64::from(lm.color[0]) * scale) as u8,
                            (f64::from(lm.color[1]) * scale) as u8,
                            (f64::from(lm.color[2]) * scale) as u8,
                        ];
                        ColumnSample {
                            color: Some(color),
                            top,
                            bottom,
                            skyline_top,
                            dir,
                        }
                    }
                }
            })
            .collect()
    }
}

/// Fills rows `[y0, y1)` of a pixel buffer from the column samples.
fn fill_rows(
    buf: &mut [u8],
    y0: usize,
    y1: usize,
    width: usize,
    ctx: FrameCtx,
    cols: &[ColumnSample],
) {
    for y in y0..y1 {
        let row = &mut buf[(y - y0) * width * 3..(y - y0 + 1) * width * 3];
        for (x, col) in cols.iter().enumerate() {
            let rgb = if let (Some(c), true) = (col.color, y >= col.top && y < col.bottom) {
                c
            } else if y >= col.skyline_top && y < ctx.horizon {
                // Distant ridge, hazier towards the horizon.
                let t =
                    (y - col.skyline_top) as f64 / (ctx.horizon - col.skyline_top).max(1) as f64;
                [
                    (60.0 + 50.0 * t) as u8,
                    (70.0 + 60.0 * t) as u8,
                    (95.0 + 65.0 * t) as u8,
                ]
            } else {
                background(y, ctx, col)
            };
            let i = x * 3;
            row[i] = rgb[0];
            row[i + 1] = rgb[1];
            row[i + 2] = rgb[2];
        }
    }
}

/// Sky above the horizon; world-anchored textured ground below.
#[inline]
fn background(y: usize, ctx: FrameCtx, col: &ColumnSample) -> [u8; 3] {
    if y < ctx.horizon {
        // Sky: darker at the top.
        let t = y as f64 / ctx.horizon.max(1) as f64;
        [
            (90.0 + 60.0 * t) as u8,
            (140.0 + 60.0 * t) as u8,
            (200.0 + 40.0 * t) as u8,
        ]
    } else {
        // Ground plane: invert the perspective projection to find the
        // world point this pixel shows, then apply a world-anchored
        // pavement texture. This makes the ground — like real footage —
        // change under both rotation and translation.
        let drop = (y - ctx.horizon).max(1) as f64;
        let dist = (ctx.focal * CAMERA_HEIGHT_M / drop).min(ctx.max_dist_m * 4.0);
        let point = ctx.position + col.dir * dist;
        let tex = cell_brightness(
            (point.x * 0.8).floor() as i64,
            (point.y * 0.8).floor() as i64,
        );
        // Haze: darker towards the horizon (large dist).
        let t = (1.0 - dist / (ctx.max_dist_m * 4.0)).clamp(0.3, 1.0);
        let g = (50.0 + 75.0 * t) * tex;
        [g as u8, g as u8, (g * 0.9) as u8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Landmark, World};

    fn world() -> World {
        World::new(vec![Landmark {
            position: Vec2::new(0.0, 40.0),
            radius_m: 6.0,
            height_m: 15.0,
            color: [200, 40, 40],
        }])
    }

    #[test]
    fn landmark_appears_in_center_of_frame() {
        let w = world();
        let r = Renderer::new(&w, 25.0, 100.0);
        let f = r.render(Vec2::ZERO, 0.0, Resolution::P240);
        let (fw, fh) = Resolution::P240.dims();
        // Centre pixel shows the (shaded) red landmark.
        let c = f.get(fw / 2, fh / 2);
        assert!(c[0] > c[1] && c[0] > c[2], "centre pixel {c:?} not reddish");
        // A corner pixel is sky.
        let sky = f.get(0, 0);
        assert!(sky[2] > sky[0], "corner {sky:?} not sky-ish");
    }

    #[test]
    fn looking_away_shows_no_landmark() {
        let w = world();
        let r = Renderer::new(&w, 25.0, 100.0);
        let f = r.render(Vec2::ZERO, 180.0, Resolution::P240);
        let (fw, fh) = Resolution::P240.dims();
        let c = f.get(fw / 2, fh / 2);
        // Horizon row when empty shows ground/sky, not red.
        assert!(!(c[0] > 150 && c[1] < 100), "unexpected landmark {c:?}");
    }

    #[test]
    fn parallel_render_matches_sequential() {
        let w = World::random_city(3, 300.0, 60);
        let r = Renderer::new(&w, 25.0, 150.0);
        for threads in [2, 3, 8] {
            let seq = r.render(Vec2::new(5.0, -3.0), 72.0, Resolution::P360);
            let par = r.render_par(Vec2::new(5.0, -3.0), 72.0, Resolution::P360, threads);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn closer_objects_appear_larger() {
        let w = world();
        let r = Renderer::new(&w, 25.0, 200.0);
        let near = r.render(Vec2::new(0.0, 10.0), 0.0, Resolution::P240);
        let far = r.render(Vec2::new(0.0, -40.0), 0.0, Resolution::P240);
        let count_red = |f: &Frame| {
            let mut n = 0;
            for y in 0..f.height() {
                for x in 0..f.width() {
                    let c = f.get(x, y);
                    if c[0] > c[1] + 20 && c[0] > c[2] + 20 {
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(count_red(&near) > 2 * count_red(&far));
    }

    #[test]
    fn render_trace_length() {
        let w = world();
        let r = Renderer::new(&w, 25.0, 100.0);
        let poses: Vec<(Vec2, f64)> = (0..5).map(|i| (Vec2::ZERO, f64::from(i) * 10.0)).collect();
        assert_eq!(r.render_trace(&poses, Resolution::P240).len(), 5);
    }

    #[test]
    fn parallel_trace_matches_sequential() {
        let w = World::random_city(4, 200.0, 80);
        let r = Renderer::new(&w, 25.0, 120.0);
        let poses: Vec<(Vec2, f64)> = (0..9)
            .map(|i| (Vec2::new(f64::from(i), 0.0), f64::from(i) * 7.0))
            .collect();
        let seq = r.render_trace(&poses, Resolution::P240);
        for threads in [2, 4] {
            assert_eq!(r.render_trace_par(&poses, Resolution::P240, threads), seq);
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let w = World::random_city(9, 200.0, 40);
        let r = Renderer::new(&w, 25.0, 120.0);
        let a = r.render(Vec2::new(1.0, 2.0), 33.0, Resolution::P240);
        let b = r.render(Vec2::new(1.0, 2.0), 33.0, Resolution::P240);
        assert_eq!(a, b);
    }
}
