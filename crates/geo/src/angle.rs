//! Compass-azimuth arithmetic.
//!
//! All functions operate on degrees. Azimuths are measured clockwise from
//! north and normalised to `[0, 360)`.

/// Normalises an angle in degrees to `[0, 360)`.
#[inline]
pub fn normalize_deg(deg: f64) -> f64 {
    let r = deg.rem_euclid(360.0);
    // `rem_euclid` can return 360.0 for tiny negative inputs due to rounding.
    if r >= 360.0 {
        0.0
    } else {
        r
    }
}

/// Maps an angle in degrees to the signed range `(-180, 180]`.
#[inline]
pub fn signed_deg(deg: f64) -> f64 {
    let n = normalize_deg(deg);
    if n > 180.0 {
        n - 360.0
    } else {
        n
    }
}

/// Unsigned angular difference between two azimuths, in `[0, 180]`.
///
/// This is the paper's eq. 2:
/// `δ_θ = min(|θ₂ − θ₁|, 360 − |θ₂ − θ₁|)`.
#[inline]
pub fn angle_diff_deg(a: f64, b: f64) -> f64 {
    let d = (normalize_deg(a) - normalize_deg(b)).abs();
    d.min(360.0 - d)
}

/// Signed angular difference `b − a` in `(-180, 180]`, i.e. how far to
/// rotate clockwise from `a` to reach `b` (negative = counter-clockwise).
#[inline]
pub fn signed_angle_diff_deg(a: f64, b: f64) -> f64 {
    signed_deg(b - a)
}

/// Plain arithmetic mean of azimuths, with no unwrapping — the
/// averaging-rule ablation's baseline.
///
/// Returns `None` for an empty slice. Susceptible to the 0°/360° wrap: the
/// mean of `{350°, 10°}` is `180°`, the exact opposite direction.
pub fn arithmetic_mean_deg(angles: &[f64]) -> Option<f64> {
    if angles.is_empty() {
        return None;
    }
    Some(normalize_deg(
        angles.iter().sum::<f64>() / angles.len() as f64,
    ))
}

/// Tests whether azimuth `theta` lies in the closed circular interval of
/// half-width `half_width` degrees centred on `center`.
#[inline]
pub fn within_deg(theta: f64, center: f64, half_width: f64) -> bool {
    angle_diff_deg(theta, center) <= half_width
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn normalize_wraps_both_directions() {
        assert!(close(normalize_deg(370.0), 10.0));
        assert!(close(normalize_deg(-10.0), 350.0));
        assert!(close(normalize_deg(720.0), 0.0));
        assert!(close(normalize_deg(0.0), 0.0));
        assert!(close(normalize_deg(-360.0), 0.0));
    }

    #[test]
    fn normalize_output_always_in_range() {
        for deg in [-1e-15, -720.0, 1e9, -1e9, 359.999_999_999] {
            let n = normalize_deg(deg);
            assert!((0.0..360.0).contains(&n), "{deg} -> {n}");
        }
    }

    #[test]
    fn signed_maps_to_half_open_range() {
        assert!(close(signed_deg(190.0), -170.0));
        assert!(close(signed_deg(180.0), 180.0));
        assert!(close(signed_deg(-190.0), 170.0));
    }

    #[test]
    fn diff_is_symmetric_and_wraps() {
        assert!(close(angle_diff_deg(10.0, 350.0), 20.0));
        assert!(close(angle_diff_deg(350.0, 10.0), 20.0));
        assert!(close(angle_diff_deg(0.0, 180.0), 180.0));
        assert!(close(angle_diff_deg(90.0, 90.0), 0.0));
    }

    #[test]
    fn signed_diff_gives_direction() {
        assert!(close(signed_angle_diff_deg(350.0, 10.0), 20.0));
        assert!(close(signed_angle_diff_deg(10.0, 350.0), -20.0));
    }

    #[test]
    fn arithmetic_mean_wraps_at_north() {
        // Without unwrapping, {350°, 10°} averages to due south.
        let a = arithmetic_mean_deg(&[350.0, 10.0]).unwrap();
        assert!(close(a, 180.0));
    }

    #[test]
    fn arithmetic_mean_of_clustered_angles() {
        let m = arithmetic_mean_deg(&[88.0, 90.0, 92.0]).unwrap();
        assert!(close(m, 90.0));
    }

    #[test]
    fn arithmetic_mean_degenerate_cases() {
        assert!(arithmetic_mean_deg(&[]).is_none());
        assert!(close(arithmetic_mean_deg(&[45.0]).unwrap(), 45.0));
        // Normalised into [0, 360).
        assert!(close(arithmetic_mean_deg(&[-10.0, -30.0]).unwrap(), 340.0));
    }

    #[test]
    fn within_respects_wrap() {
        assert!(within_deg(355.0, 5.0, 15.0));
        assert!(!within_deg(355.0, 30.0, 15.0));
        assert!(within_deg(30.0, 30.0, 0.0));
    }
}
