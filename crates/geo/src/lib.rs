//! Geodesy substrate for SWAG (*Scan Without a Glance*).
//!
//! Provides the small geometric vocabulary the rest of the system is built
//! on: WGS-like latitude/longitude coordinates ([`LatLon`]), a spherical-earth
//! planar projection matching the paper's eq. 12 ([`LatLon::displacement_to`],
//! [`LocalFrame`]), compass-azimuth arithmetic ([`angle`]) and plain 2-D
//! vector math ([`Vec2`]).
//!
//! Conventions used throughout the workspace:
//!
//! * Latitude/longitude are in **degrees**; latitude in `[-90, 90]`,
//!   longitude in `[-180, 180)`.
//! * Azimuths (compass bearings) are in **degrees clockwise from true
//!   north**, normalised to `[0, 360)`.
//! * Local planar coordinates are **metres** in an east-north frame:
//!   `x` grows eastwards, `y` grows northwards.

pub mod angle;
pub mod latlon;
pub mod local;
pub mod trajectory;
pub mod vec2;

pub use angle::{angle_diff_deg, normalize_deg, signed_deg};
pub use latlon::{lng_delta_deg, DistanceBound, LatLon, EARTH_RADIUS_M, METERS_PER_DEG};
pub use local::LocalFrame;
pub use trajectory::Trajectory;
pub use vec2::Vec2;
