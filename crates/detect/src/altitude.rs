//! Altitude-based detection gating — the paper's §III-D application-level
//! optimisation.
//!
//! "When the UAV platform is capable of providing altitude information we
//! can incorporate this into the detection process by restricting the
//! possible sizes of detected objects. [...] any objects that are not
//! within this range can be discarded as false detections, based on their
//! size and feasibility with respect to the UAV altitude and real object
//! size." The paper leaves this as future work; we implement it, and
//! `tests/pipeline_integration.rs` asserts its precision benefit (ABL-ALT).

use crate::{DetectError, Result};
use dronet_metrics::BBox;

/// Nadir camera intrinsics needed to map metres to pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    /// Full field of view in radians (square sensor assumed).
    pub fov_rad: f32,
    /// Frame side length in pixels.
    pub frame_px: usize,
}

impl CameraModel {
    /// Creates a camera model.
    pub fn new(fov_rad: f32, frame_px: usize) -> Self {
        CameraModel { fov_rad, frame_px }
    }

    /// Ground sampling distance (metres per pixel) at the given altitude.
    pub fn meters_per_pixel(&self, altitude_m: f32) -> f32 {
        2.0 * altitude_m * (self.fov_rad / 2.0).tan() / self.frame_px as f32
    }
}

/// Discards detections whose box size is infeasible for the current
/// altitude and the known physical size range of vehicles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AltitudeFilter {
    camera: CameraModel,
    altitude_m: f32,
    /// Feasible vehicle major-dimension range in metres.
    vehicle_len_m: (f32, f32),
    /// Multiplicative slack applied to both ends of the feasible range
    /// (0.5 means boxes from 50% to 200% of nominal pass).
    tolerance: f32,
}

impl AltitudeFilter {
    /// Creates a filter.
    ///
    /// `vehicle_len_m` is the physical length range of the target class
    /// (cars: roughly 3.5–5.5 m); `tolerance` in `(0, 1]` widens the
    /// accepted pixel range to absorb box regression noise.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::BadConfig`] for non-positive altitude,
    /// reversed length range, or tolerance outside `(0, 1]`.
    pub fn new(
        camera: CameraModel,
        altitude_m: f32,
        vehicle_len_m: (f32, f32),
        tolerance: f32,
    ) -> Result<Self> {
        if altitude_m <= 0.0 || !altitude_m.is_finite() {
            return Err(DetectError::BadConfig {
                param: "altitude",
                msg: format!("altitude {altitude_m} must be positive"),
            });
        }
        if vehicle_len_m.0 <= 0.0 || vehicle_len_m.0 > vehicle_len_m.1 {
            return Err(DetectError::BadConfig {
                param: "vehicle size range",
                msg: format!("invalid range {vehicle_len_m:?}"),
            });
        }
        if !(0.0..=1.0).contains(&tolerance) || tolerance == 0.0 {
            return Err(DetectError::BadConfig {
                param: "tolerance",
                msg: format!("tolerance {tolerance} outside (0, 1]"),
            });
        }
        Ok(AltitudeFilter {
            camera,
            altitude_m,
            vehicle_len_m,
            tolerance,
        })
    }

    /// The feasible normalised box-dimension range at the current altitude.
    pub fn feasible_range(&self) -> (f32, f32) {
        let mpp = self.camera.meters_per_pixel(self.altitude_m);
        let lo_px = self.vehicle_len_m.0 / mpp * self.tolerance;
        let hi_px = self.vehicle_len_m.1 / mpp / self.tolerance;
        (
            lo_px / self.camera.frame_px as f32,
            hi_px / self.camera.frame_px as f32,
        )
    }

    /// Whether a detected box has a feasible size for a vehicle seen from
    /// the current altitude.
    pub fn is_feasible(&self, bbox: &BBox) -> bool {
        let (lo, hi) = self.feasible_range();
        // The larger box dimension corresponds to the vehicle length for
        // any orientation; the smaller must not exceed the max either.
        let major = bbox.w.max(bbox.h);
        let minor = bbox.w.min(bbox.h);
        major >= lo && major <= hi && minor <= hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(altitude: f32) -> AltitudeFilter {
        AltitudeFilter::new(
            CameraModel::new(60f32.to_radians(), 512),
            altitude,
            (3.5, 5.5),
            0.6,
        )
        .unwrap()
    }

    #[test]
    fn feasible_range_shrinks_with_altitude() {
        let low = filter(30.0).feasible_range();
        let high = filter(120.0).feasible_range();
        assert!(low.0 > high.0);
        assert!(low.1 > high.1);
    }

    #[test]
    fn correctly_sized_vehicle_passes() {
        let f = filter(60.0);
        // At 60 m with 60-deg FOV over 512 px: mpp ~= 0.135, a 4.5 m car is
        // ~33 px -> ~0.065 normalised.
        let car = BBox::new(0.5, 0.5, 0.065, 0.03);
        assert!(f.is_feasible(&car), "range {:?}", f.feasible_range());
    }

    #[test]
    fn building_sized_box_fails() {
        let f = filter(60.0);
        let building = BBox::new(0.5, 0.5, 0.5, 0.4);
        assert!(!f.is_feasible(&building));
    }

    #[test]
    fn speck_sized_box_fails() {
        let f = filter(60.0);
        let speck = BBox::new(0.5, 0.5, 0.004, 0.004);
        assert!(!f.is_feasible(&speck));
    }

    #[test]
    fn same_box_feasibility_depends_on_altitude() {
        // A 0.065-normalised box is a car at 60 m but far too large at 400 m.
        let car = BBox::new(0.5, 0.5, 0.065, 0.03);
        assert!(filter(60.0).is_feasible(&car));
        assert!(!filter(400.0).is_feasible(&car));
    }

    #[test]
    fn config_validation() {
        let cam = CameraModel::new(1.0, 512);
        assert!(AltitudeFilter::new(cam, 0.0, (3.5, 5.5), 0.6).is_err());
        assert!(AltitudeFilter::new(cam, 50.0, (5.5, 3.5), 0.6).is_err());
        assert!(AltitudeFilter::new(cam, 50.0, (3.5, 5.5), 0.0).is_err());
        assert!(AltitudeFilter::new(cam, 50.0, (3.5, 5.5), 1.5).is_err());
    }
}
