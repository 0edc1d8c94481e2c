//! The FoV similarity measurement (paper §III).
//!
//! Following Newtonian mechanics, the motion between two camera poses is
//! decomposed into a **rotation** by `δ_θ` and a **translation** by distance
//! `δ_p` in direction `θ_p`; the similarity is the product of the two
//! component similarities (paper eq. 10):
//!
//! ```text
//! Sim(f₁, f₂) = Sim_R(δ_θ) × Sim_T(δ_p, θ_p)
//! ```
//!
//! * `Sim_R` (eq. 4) is the normalised overlap of the two covered angle
//!   ranges: linear in `δ_θ`, zero once `δ_θ ≥ 2α`.
//! * `Sim_T` (eq. 9) interpolates between the two extreme translation cases:
//!   parallel to the view direction (`Sim_∥`, slow decay, never reaches 0)
//!   and perpendicular to it (`Sim_⊥`, fast decay, exactly 0 at
//!   `d = 2R·sin α`).
//!
//! ### Reconstruction notes (see `DESIGN.md`)
//!
//! The paper's eq. 6 for the perpendicular case is typeset unreadably and
//! its eq. 7 normalisation contradicts `Sim(d = 0) = 1`. We use
//! geometrically derived, boundary-consistent forms:
//!
//! * `Sim_∥(d) = φ_∥ / α` with `φ_∥ = arctan(R sin α / (d + R cos α))`
//!   (eq. 5 as printed, normalisation fixed);
//! * `Sim_⊥(d) = (2α − arcsin(d cos α / R)) / 2α` for `d ≤ 2R sin α`,
//!   else 0 — the widest bundle of rays from the translated camera that
//!   still intersects the original sector. Exact for `α ≤ 45°`.
//!
//! The translation direction `θ_p` in the combined case (eq. 10) is
//! measured against the **circular midpoint** of the two orientations, which
//! keeps the measurement symmetric (`Sim(f₁,f₂) = Sim(f₂,f₁)`); the paper
//! leaves this reference ambiguous.

use serde::{Deserialize, Serialize};
use swag_geo::{angle_diff_deg, lng_delta_deg, normalize_deg, signed_deg, METERS_PER_DEG};

use crate::fov::{CameraProfile, Fov};

/// Precomputed trigonometry of one [`CameraProfile`].
///
/// Every similarity component needs some combination of `sin α`, `cos α`,
/// `R·sin α`, `R·cos α` and `2R·sin α`; evaluating them per call makes the
/// transcendental functions dominate the hot path (the segmenter runs one
/// similarity per captured frame, the linear-scan baseline one per stored
/// segment). Build a `CamTrig` once per camera and use the `*_trig`
/// variants — [`similarity_parts`] and the [`Segmenter`](crate::Segmenter)
/// do this internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamTrig {
    /// Half viewing angle `α` in radians.
    pub alpha_rad: f64,
    /// `sin α`.
    pub sin_alpha: f64,
    /// `cos α`.
    pub cos_alpha: f64,
    /// `R·sin α` — numerator of the eq. 5 arctangent.
    pub r_sin_alpha: f64,
    /// `R·cos α` — denominator offset of the eq. 5 arctangent.
    pub r_cos_alpha: f64,
    /// `2R·sin α` — the perpendicular cutoff distance
    /// ([`CameraProfile::perp_cutoff_m`]).
    pub perp_cutoff_m: f64,
    /// `cos α / R` — scale of the eq. 6 arcsine argument.
    pub cos_alpha_over_r: f64,
    /// Full viewing angle `𝒜 = 2α` in degrees, for `Sim_R`.
    pub full_angle_deg: f64,
}

impl CamTrig {
    /// Precomputes the trigonometry of `cam`.
    pub fn new(cam: &CameraProfile) -> Self {
        let alpha = cam.alpha_rad();
        let (sin_alpha, cos_alpha) = alpha.sin_cos();
        let r = cam.view_radius_m;
        CamTrig {
            alpha_rad: alpha,
            sin_alpha,
            cos_alpha,
            r_sin_alpha: r * sin_alpha,
            r_cos_alpha: r * cos_alpha,
            perp_cutoff_m: 2.0 * r * sin_alpha,
            cos_alpha_over_r: cos_alpha / r,
            full_angle_deg: cam.viewing_angle_deg(),
        }
    }
}

impl From<&CameraProfile> for CamTrig {
    fn from(cam: &CameraProfile) -> Self {
        CamTrig::new(cam)
    }
}

/// Rotation similarity `Sim_R` (paper eq. 4): the fractional overlap of two
/// covered angle ranges whose centres differ by `delta_theta_deg`.
///
/// `delta_theta_deg` must be an unsigned angular difference in `[0, 180]`
/// (use [`Fov::delta_theta_deg`]).
#[inline]
pub fn sim_rotation(delta_theta_deg: f64, cam: &CameraProfile) -> f64 {
    let full = cam.viewing_angle_deg();
    if delta_theta_deg >= full {
        0.0
    } else {
        (full - delta_theta_deg) / full
    }
}

/// [`sim_rotation`] on precomputed trigonometry.
#[inline]
pub fn sim_rotation_trig(delta_theta_deg: f64, trig: &CamTrig) -> f64 {
    let full = trig.full_angle_deg;
    if delta_theta_deg >= full {
        0.0
    } else {
        (full - delta_theta_deg) / full
    }
}

/// Narrowed half viewing angle `φ_∥` after a parallel (forward) translation
/// of `d` metres (paper eq. 5), in radians.
#[inline]
pub fn phi_parallel_rad(d: f64, cam: &CameraProfile) -> f64 {
    phi_parallel_rad_trig(d, &CamTrig::new(cam))
}

/// [`phi_parallel_rad`] on precomputed trigonometry.
#[inline]
pub fn phi_parallel_rad_trig(d: f64, trig: &CamTrig) -> f64 {
    trig.r_sin_alpha.atan2(d + trig.r_cos_alpha)
}

/// Parallel-translation similarity `Sim_∥` (paper eqs. 5 & 7).
///
/// Decays slowly with `d` and stays strictly positive for any finite
/// distance (§III Case 2, statement 2).
#[inline]
pub fn sim_parallel(d: f64, cam: &CameraProfile) -> f64 {
    sim_parallel_trig(d, &CamTrig::new(cam))
}

/// [`sim_parallel`] on precomputed trigonometry.
#[inline]
pub fn sim_parallel_trig(d: f64, trig: &CamTrig) -> f64 {
    debug_assert!(d >= 0.0 || d.is_nan(), "negative distance {d}");
    phi_parallel_rad_trig(d, trig) / trig.alpha_rad
}

/// Perpendicular-translation similarity `Sim_⊥` (paper eq. 6,
/// reconstructed — see module docs).
///
/// Decays faster than `Sim_∥` and reaches exactly 0 at `d = 2R·sin α`
/// ([`CameraProfile::perp_cutoff_m`]).
#[inline]
pub fn sim_perp(d: f64, cam: &CameraProfile) -> f64 {
    sim_perp_trig(d, &CamTrig::new(cam))
}

/// [`sim_perp`] on precomputed trigonometry.
#[inline]
pub fn sim_perp_trig(d: f64, trig: &CamTrig) -> f64 {
    debug_assert!(d >= 0.0 || d.is_nan(), "negative distance {d}");
    if d >= trig.perp_cutoff_m {
        return 0.0;
    }
    let a = trig.alpha_rad;
    let arg = (d * trig.cos_alpha_over_r).clamp(-1.0, 1.0);
    ((2.0 * a - arg.asin()) / (2.0 * a)).max(0.0)
}

/// Translation similarity `Sim_T` (paper eq. 9): linear interpolation
/// between the parallel and perpendicular extremes by the translation
/// direction.
///
/// `theta_p_deg` is the angle between the translation direction and the
/// view direction; any value is accepted and folded into `[0°, 90°]` by
/// symmetry (forward/backward and left/right are equivalent under the
/// paper's model).
pub fn sim_translation(d: f64, theta_p_deg: f64, cam: &CameraProfile) -> f64 {
    sim_translation_trig(d, theta_p_deg, &CamTrig::new(cam))
}

/// [`sim_translation`] on precomputed trigonometry.
pub fn sim_translation_trig(d: f64, theta_p_deg: f64, trig: &CamTrig) -> f64 {
    let folded = fold_to_quadrant(theta_p_deg);
    let w = folded / 90.0;
    (1.0 - w) * sim_parallel_trig(d, trig) + w * sim_perp_trig(d, trig)
}

/// Folds an arbitrary angle into `[0, 90]` using the mirror symmetries of
/// the translation model.
#[inline]
fn fold_to_quadrant(theta_deg: f64) -> f64 {
    let e = angle_diff_deg(theta_deg, 0.0); // [0, 180]
    if e > 90.0 {
        180.0 - e
    } else {
        e
    }
}

/// Intermediate quantities of one similarity evaluation, for diagnostics,
/// figures and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimilarityBreakdown {
    /// Translation distance `δ_p` in metres.
    pub delta_p_m: f64,
    /// Rotation `δ_θ` in degrees, `[0, 180]`.
    pub delta_theta_deg: f64,
    /// Translation direction relative to the (midpoint) view direction,
    /// folded to `[0, 90]` degrees.
    pub theta_p_deg: f64,
    /// `Sim_R` component.
    pub sim_rotation: f64,
    /// `Sim_∥` at `δ_p`.
    pub sim_parallel: f64,
    /// `Sim_⊥` at `δ_p`.
    pub sim_perp: f64,
    /// Combined translation similarity `Sim_T`.
    pub sim_translation: f64,
    /// Final similarity `Sim = Sim_R × Sim_T`.
    pub sim: f64,
}

/// Full FoV similarity `Sim(f₁, f₂) = Sim_R × Sim_T` (paper eq. 10),
/// returning every intermediate component.
///
/// Computes the camera trigonometry once; callers evaluating many pairs
/// against the same camera should precompute a [`CamTrig`] and use
/// [`similarity_parts_trig`] directly.
pub fn similarity_parts(f1: &Fov, f2: &Fov, cam: &CameraProfile) -> SimilarityBreakdown {
    similarity_parts_trig(f1, f2, &CamTrig::new(cam))
}

/// [`similarity_parts`] on precomputed trigonometry.
pub fn similarity_parts_trig(f1: &Fov, f2: &Fov, trig: &CamTrig) -> SimilarityBreakdown {
    let delta_theta = f1.delta_theta_deg(f2);
    let disp = f1.p.displacement_to(f2.p);
    let delta_p = disp.norm();
    let sim_r = sim_rotation_trig(delta_theta, trig);

    // Reference view direction: circular midpoint of the two orientations.
    let mid = normalize_deg(f1.theta + 0.5 * signed_deg(f2.theta - f1.theta));

    let (theta_p, sim_par, sim_prp, sim_t) = if delta_p < 1e-9 {
        (0.0, 1.0, 1.0, 1.0)
    } else {
        let bearing = disp.azimuth_deg();
        let rel = fold_to_quadrant(angle_diff_deg(bearing, mid));
        // Sim_T interpolates the two extremes already computed here — blend
        // directly instead of calling `sim_translation_trig` (which would
        // re-evaluate both).
        let par = sim_parallel_trig(delta_p, trig);
        let prp = sim_perp_trig(delta_p, trig);
        let w = rel / 90.0;
        (rel, par, prp, (1.0 - w) * par + w * prp)
    };

    SimilarityBreakdown {
        delta_p_m: delta_p,
        delta_theta_deg: delta_theta,
        theta_p_deg: theta_p,
        sim_rotation: sim_r,
        sim_parallel: sim_par,
        sim_perp: sim_prp,
        sim_translation: sim_t,
        sim: sim_r * sim_t,
    }
}

/// Full FoV similarity `Sim(f₁, f₂)` in `[0, 1]` (paper eq. 10).
///
/// `1` iff the FoVs are identical; decreases with both position and
/// orientation differences; symmetric in its arguments.
///
/// ```
/// use swag_core::{similarity, CameraProfile, Fov};
/// use swag_geo::LatLon;
///
/// let cam = CameraProfile::smartphone();
/// let here = Fov::new(LatLon::new(40.0, 116.32), 0.0);
/// assert_eq!(similarity(&here, &here, &cam), 1.0);
///
/// // 30 m forward along the view direction: still quite similar.
/// let ahead = Fov::new(here.p.offset(0.0, 30.0), 0.0);
/// // Rotated past the whole viewing angle: nothing shared.
/// let away = Fov::new(here.p, 90.0);
/// assert!(similarity(&here, &ahead, &cam) > 0.7);
/// assert_eq!(similarity(&here, &away, &cam), 0.0);
/// ```
#[inline]
pub fn similarity(f1: &Fov, f2: &Fov, cam: &CameraProfile) -> f64 {
    similarity_parts(f1, f2, cam).sim
}

/// [`similarity`] on precomputed trigonometry.
#[inline]
pub fn similarity_trig(f1: &Fov, f2: &Fov, trig: &CamTrig) -> f64 {
    similarity_parts_trig(f1, f2, trig).sim
}

/// Margin ε of [`SimAnchor::is_below`]'s shortcuts, on the similarity
/// scale: a shortcut decides only when its bound clears `thresh` by more
/// than ε.
///
/// Every quantity of the full formula lies in `[0, 1]` (`Sim_R`, `Sim_∥`,
/// `Sim_⊥`, the weight `w`), so its rounding is an *absolute* error of a
/// few units of `2⁻⁵³`: `Sim_R` is computed by the same expression on both
/// paths; the computed `Sim_T` never exceeds `1 + 10·2⁻⁵³` (`Sim_⊥ ≤ 1`
/// exactly, `Sim_∥ = atan2(R sin α, d + R cos α)/α ≤ 1 + 6·2⁻⁵³`, and the
/// blend adds three roundings); and the bounds below, evaluated where they
/// can decide (every term under 1), carry ≲ 20 roundings plus the
/// transcendentals' ≤ 1 ulp each. That is ≲ 100·2⁻⁵³ ≈ 1.1e-14 in all,
/// which `1e-9` clears by five orders of magnitude. Being absolute, the
/// margin also holds for `thresh` near 0, where a relative one would fall
/// below the subnormal spacing.
const CUT_EPS: f64 = 1e-9;

/// `π/360`: `|cos m − cos l| ≤ |m − l|`, and the full formula's mean
/// latitude `m` sits `Δlat/2` from the anchor's `l`.
pub(crate) const HALF_DEG_RAD: f64 = std::f64::consts::PI / 360.0;

/// Added to the `cos(mean lat)` bound to cover the rounding of both
/// cosines and their arguments (≈ 3e-15 for latitudes within ±180°).
pub(crate) const COS_SLACK: f64 = 1e-12;

/// Relative slack on the `δ_p` bound: the full formula's `hypot` and
/// products round, the bound's square root rounds (≈ 10·2⁻⁵³ in all).
const DP_SLACK: f64 = 1e-12;

/// Shortcuts apply only while the bound on `δ_p` stays under 10 000 km
/// (squared, m²). Then `|Δlat| ≤ 90°`, so every latitude the full formula
/// touches lies within ±180° and every intermediate is finite; any frame
/// further away (or with a non-finite coordinate) takes the full formula.
const DP_MAX_SQ: f64 = 1e14;

/// One fixed anchor FoV `f_s` of Algorithm 1, prepared for the cut test
/// `Sim(f_s, f) < thresh`.
///
/// [`is_below`](Self::is_below) equals
/// `similarity_trig(anchor, f, trig) < thresh` for every input, but
/// evaluates the full similarity only where cheap bounds leave the answer
/// open (about 3 % of the frames of the benchmark's fleet traces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimAnchor {
    fov: Fov,
    /// `cos lat_s`, or NaN for a latitude outside `[−90°, 90°]`, which
    /// turns every shortcut off (`NaN ≤ x` is false).
    cos_lat: f64,
}

impl SimAnchor {
    /// Prepares `fov` as the anchor.
    pub fn new(fov: Fov) -> Self {
        let cos_lat = if fov.p.lat.abs() <= 90.0 {
            fov.p.lat.to_radians().cos()
        } else {
            f64::NAN
        };
        SimAnchor { fov, cos_lat }
    }

    /// Whether `similarity_trig(anchor, f, trig) < thresh`.
    ///
    /// `Sim = Sim_R × Sim_T` with `Sim_T ∈ [0, 1]`, so
    /// - `Sim_R < thresh − ε` decides a cut without `Sim_T`;
    /// - `Sim_T ≥ min(Sim_∥, Sim_⊥)` (eq. 9 blends the two), both decrease
    ///   in `δ_p`, and lower bounds free of transcendentals exist for
    ///   both; if `Sim_R` times each clears `thresh + ε`, there is no cut.
    ///
    /// Every other frame evaluates [`similarity_trig`]. Each shortcut is a
    /// comparison that is false on NaN, so a non-finite frame always takes
    /// the full formula. The margin ε is `CUT_EPS` (10⁻⁹).
    #[inline]
    pub fn is_below(&self, f: &Fov, trig: &CamTrig, thresh: f64) -> bool {
        let s = &self.fov;
        // Exactly the `Sim_R` of `similarity_parts_trig`.
        let sim_r = sim_rotation_trig(s.delta_theta_deg(f), trig);

        // Upper bound on the `δ_p` of eq. 12 without its cosine: the full
        // formula scales `Δlng` by `cos(mean lat)`, and
        // `|cos(mean lat) − cos lat_s| ≤ |Δlat|/2` (radians). `Δlat` and
        // `Δlng` are the very differences the full formula takes (`Δlng`
        // wrapped the short way round the antimeridian).
        let dlat = f.p.lat - s.p.lat;
        let dlng = lng_delta_deg(s.p.lng, f.p.lng);
        let cos_hi = self.cos_lat + dlat.abs() * HALF_DEG_RAD + COS_SLACK;
        let dx = METERS_PER_DEG * cos_hi * dlng;
        let dy = METERS_PER_DEG * dlat;
        let dp_sq = dx * dx + dy * dy;
        // A finite `θ₂ − θ₁` keeps the full formula's view midpoint finite.
        if dp_sq <= DP_MAX_SQ && (f.theta - s.theta).is_finite() {
            if sim_r < thresh - CUT_EPS {
                return true;
            }
            let hi = thresh + CUT_EPS;
            if sim_r > hi {
                let d = dp_sq.sqrt() * (1.0 + DP_SLACK);
                // Sim_⊥ ≥ 1 − tan(asin x)/2α = 1 − (x/√(1−x²))/2α below the
                // cutoff (asin x ≤ tan asin x on [0, 1)); 0 from it on.
                let perp = if d < trig.perp_cutoff_m {
                    let x = d * trig.cos_alpha_over_r;
                    1.0 - x / ((1.0 - x * x).sqrt() * (2.0 * trig.alpha_rad))
                } else {
                    0.0
                };
                // Sim_∥ = atan(u)/α with u = R sin α/(d + R cos α), and
                // atan u ≥ 3u/(1 + 2√(1+u²)) for u ≥ 0 (Shafer).
                let u = trig.r_sin_alpha / (d + trig.r_cos_alpha);
                let par = 3.0 * u / (1.0 + 2.0 * (1.0 + u * u).sqrt()) / trig.alpha_rad;
                if sim_r * perp > hi && sim_r * par > hi {
                    return false;
                }
            }
        }
        similarity_trig(s, f, trig) < thresh
    }
}

/// The *vector-model* similarity of prior geo-video work (Kim et al.,
/// MMSys 2010 — reference \[23\] of the paper): the FoV is treated as a
/// vector of magnitude `R` along `θ`, and similarity is a weighted linear
/// blend of normalised position and orientation agreement:
///
/// ```text
/// Sim_vec = ½·max(0, 1 − δ_p/2R) + ½·(1 − δ_θ/180°)
/// ```
///
/// Kept as the baseline for the similarity-model ablation: unlike the
/// paper's transformation model it ignores the *direction* of travel
/// (parallel motion decays exactly as fast as perpendicular motion) and
/// never reaches 0 while orientations roughly agree.
pub fn vector_model_similarity(f1: &Fov, f2: &Fov, cam: &CameraProfile) -> f64 {
    let dp = f1.delta_p_m(f2);
    let dth = f1.delta_theta_deg(f2);
    let pos = (1.0 - dp / (2.0 * cam.view_radius_m)).max(0.0);
    let dir = 1.0 - dth / 180.0;
    0.5 * pos + 0.5 * dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use swag_geo::LatLon;

    fn cam() -> CameraProfile {
        CameraProfile::smartphone() // α = 25°, R = 100 m
    }

    fn origin() -> LatLon {
        LatLon::new(40.0, 116.32)
    }

    #[test]
    fn rotation_similarity_shape() {
        let c = cam();
        assert_eq!(sim_rotation(0.0, &c), 1.0);
        // Linear: half overlap at δθ = α.
        assert!((sim_rotation(25.0, &c) - 0.5).abs() < 1e-12);
        assert_eq!(sim_rotation(50.0, &c), 0.0);
        assert_eq!(sim_rotation(120.0, &c), 0.0);
    }

    #[test]
    fn parallel_similarity_boundaries() {
        let c = cam();
        assert!((sim_parallel(0.0, &c) - 1.0).abs() < 1e-12);
        // Strictly positive even at extreme distances.
        assert!(sim_parallel(100_000.0, &c) > 0.0);
        // Monotone decreasing.
        let mut last = 1.0;
        for d in (0..100).map(|i| i as f64 * 10.0) {
            let s = sim_parallel(d, &c);
            assert!(s <= last + 1e-12);
            last = s;
        }
    }

    #[test]
    fn perp_similarity_boundaries() {
        let c = cam();
        assert!((sim_perp(0.0, &c) - 1.0).abs() < 1e-12);
        let cutoff = c.perp_cutoff_m();
        assert!((sim_perp(cutoff, &c)).abs() < 1e-9);
        assert_eq!(sim_perp(cutoff + 1.0, &c), 0.0);
        // Continuous approach to zero just before the cutoff.
        assert!(sim_perp(cutoff - 0.1, &c) < 0.01);
    }

    #[test]
    fn parallel_dominates_perp_for_default_alpha() {
        // Paper eq. 8: Sim_∥ ≥ Sim_⊥, equality iff d = 0.
        let c = cam();
        assert!((sim_parallel(0.0, &c) - sim_perp(0.0, &c)).abs() < 1e-12);
        for i in 1..=300 {
            let d = i as f64;
            assert!(
                sim_parallel(d, &c) >= sim_perp(d, &c) - 1e-12,
                "violated at d = {d}"
            );
        }
    }

    #[test]
    fn translation_interpolates_between_extremes() {
        let c = cam();
        let d = 40.0;
        let t0 = sim_translation(d, 0.0, &c);
        let t45 = sim_translation(d, 45.0, &c);
        let t90 = sim_translation(d, 90.0, &c);
        assert!((t0 - sim_parallel(d, &c)).abs() < 1e-12);
        assert!((t90 - sim_perp(d, &c)).abs() < 1e-12);
        assert!(t90 <= t45 && t45 <= t0);
        // Folding symmetries: backward = forward, left = right.
        assert!((sim_translation(d, 180.0, &c) - t0).abs() < 1e-12);
        assert!((sim_translation(d, 270.0, &c) - t90).abs() < 1e-12);
        assert!((sim_translation(d, 135.0, &c) - t45).abs() < 1e-12);
    }

    #[test]
    fn identical_fovs_have_similarity_one() {
        let f = Fov::new(origin(), 123.0);
        assert!((similarity(&f, &f, &cam()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pure_rotation_matches_sim_r() {
        let c = cam();
        let f1 = Fov::new(origin(), 0.0);
        for dt in [0.0, 10.0, 25.0, 49.0, 60.0, 180.0] {
            let f2 = Fov::new(origin(), dt);
            let s = similarity(&f1, &f2, &c);
            assert!((s - sim_rotation(dt, &c)).abs() < 1e-12, "δθ = {dt}: {s}");
        }
    }

    #[test]
    fn pure_parallel_translation_matches_sim_parallel() {
        let c = cam();
        let f1 = Fov::new(origin(), 0.0);
        // Move north (the view direction).
        let f2 = Fov::new(origin().offset(0.0, 50.0), 0.0);
        let parts = similarity_parts(&f1, &f2, &c);
        assert!(parts.theta_p_deg < 0.1);
        assert!((parts.sim - sim_parallel(parts.delta_p_m, &c)).abs() < 1e-6);
    }

    #[test]
    fn pure_perpendicular_translation_matches_sim_perp() {
        let c = cam();
        let f1 = Fov::new(origin(), 0.0);
        // Move east while looking north.
        let f2 = Fov::new(origin().offset(90.0, 50.0), 0.0);
        let parts = similarity_parts(&f1, &f2, &c);
        assert!((parts.theta_p_deg - 90.0).abs() < 0.1);
        assert!((parts.sim - sim_perp(parts.delta_p_m, &c)).abs() < 1e-6);
    }

    #[test]
    fn similarity_is_symmetric() {
        let c = cam();
        let f1 = Fov::new(origin(), 33.0);
        let f2 = Fov::new(origin().offset(75.0, 42.0), 350.0);
        let a = similarity(&f1, &f2, &c);
        let b = similarity(&f2, &f1, &c);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn similarity_decreases_with_rotation() {
        let c = cam();
        let f1 = Fov::new(origin(), 0.0);
        let mut last = 1.0;
        for dt in (0..=50).map(|i| i as f64) {
            let s = similarity(&f1, &Fov::new(origin(), dt), &c);
            assert!(s <= last + 1e-12, "δθ = {dt}");
            last = s;
        }
    }

    #[test]
    fn combined_motion_is_product() {
        let c = cam();
        let f1 = Fov::new(origin(), 0.0);
        let f2 = Fov::new(origin().offset(45.0, 30.0), 20.0);
        let parts = similarity_parts(&f1, &f2, &c);
        assert!((parts.sim - parts.sim_rotation * parts.sim_translation).abs() < 1e-12);
        assert!(parts.sim < parts.sim_rotation);
        assert!(parts.sim < parts.sim_translation);
    }

    #[test]
    fn vector_model_baseline_properties() {
        let c = cam();
        let f1 = Fov::new(origin(), 0.0);
        // Identity.
        assert_eq!(vector_model_similarity(&f1, &f1, &c), 1.0);
        // Symmetric.
        let f2 = Fov::new(origin().offset(70.0, 40.0), 120.0);
        assert!(
            (vector_model_similarity(&f1, &f2, &c) - vector_model_similarity(&f2, &f1, &c)).abs()
                < 1e-9
        );
        // Bounded.
        let far = Fov::new(origin().offset(0.0, 10_000.0), 180.0);
        let s = vector_model_similarity(&f1, &far, &c);
        assert!((0.0..=1.0).contains(&s));
        // The model's documented blind spot: it cannot tell parallel from
        // perpendicular translation.
        let fwd = Fov::new(origin().offset(0.0, 50.0), 0.0);
        let side = Fov::new(origin().offset(90.0, 50.0), 0.0);
        assert!(
            (vector_model_similarity(&f1, &fwd, &c) - vector_model_similarity(&f1, &side, &c))
                .abs()
                < 1e-6
        );
        // ...whereas the paper's model does.
        assert!(similarity(&f1, &fwd, &c) > similarity(&f1, &side, &c));
    }

    #[test]
    fn cached_trig_matches_profile_math() {
        // The precomputed-trig fast path must agree with the per-call
        // profile math it replaces, component by component.
        for (alpha, r) in [(25.0, 100.0), (30.0, 50.0), (45.0, 200.0), (10.0, 15.0)] {
            let c = CameraProfile::new(alpha, r);
            let t = CamTrig::new(&c);
            assert_eq!(t.perp_cutoff_m, c.perp_cutoff_m());
            assert_eq!(t.full_angle_deg, c.viewing_angle_deg());
            for d in [0.0, 0.5, 7.0, 33.3, 99.0, 150.0, 1000.0] {
                assert_eq!(sim_parallel_trig(d, &t), sim_parallel(d, &c));
                assert!((sim_perp_trig(d, &t) - sim_perp(d, &c)).abs() < 1e-12);
                for th in [0.0, 17.0, 45.0, 90.0, 135.0, 260.0] {
                    assert!(
                        (sim_translation_trig(d, th, &t) - sim_translation(d, th, &c)).abs()
                            < 1e-12
                    );
                }
            }
        }
    }

    #[test]
    fn trig_full_similarity_matches_profile_path() {
        let c = cam();
        let t = CamTrig::new(&c);
        let f1 = Fov::new(origin(), 33.0);
        for (az, d, th) in [(0.0, 0.0, 33.0), (45.0, 30.0, 20.0), (200.0, 80.0, 310.0)] {
            let f2 = Fov::new(origin().offset(az, d), th);
            let a = similarity_parts(&f1, &f2, &c);
            let b = similarity_parts_trig(&f1, &f2, &t);
            assert_eq!(a, b);
            assert_eq!(similarity_trig(&f1, &f2, &t), a.sim);
        }
    }

    #[test]
    fn larger_radius_decays_slower() {
        // §VII discussion: similarity decreases slower when R grows.
        let near = CameraProfile::new(25.0, 20.0);
        let far = CameraProfile::new(25.0, 100.0);
        for d in [5.0, 10.0, 15.0] {
            assert!(sim_perp(d, &far) > sim_perp(d, &near), "d = {d}");
            assert!(sim_parallel(d, &far) > sim_parallel(d, &near), "d = {d}");
        }
    }
}
