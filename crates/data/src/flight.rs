//! UAV flight simulation: a persistent world viewed through a moving,
//! altitude-aware nadir camera.
//!
//! Stands in for the paper's deployment substrate (a DJI Matrice 100 with
//! an on-board camera, Fig. 5): the simulator produces the same *stream*
//! abstraction — frames with ground truth arriving at camera rate — and
//! models the altitude/ground-sampling relationship the paper's §III-D
//! application-level optimisation (altitude-based size gating) relies on.

use crate::scene::SceneKind;
use crate::{Annotation, Color, Image};
use dronet_metrics::BBox;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A vehicle living in world coordinates (metres).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldVehicle {
    /// Centre x position in metres.
    pub x: f32,
    /// Centre y position in metres.
    pub y: f32,
    /// Heading in radians.
    pub angle: f32,
    /// Length in metres (typical cars: 4–5 m).
    pub length: f32,
    /// Width in metres.
    pub width: f32,
    /// Body colour.
    pub color: Color,
}

/// World side length in metres.
pub const WORLD_SIZE_M: f32 = 400.0;
/// Half-width of the road corridor in metres.
const ROAD_HALF_WIDTH_M: f32 = 8.0;
/// Fraction of vehicles placed on the road (the rest park off-road).
const ON_ROAD_FRACTION: f32 = 0.7;

/// Configuration of the simulated world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Number of vehicles scattered over the world.
    pub vehicles: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig { vehicles: 60 }
    }
}

/// The static world a flight observes.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    vehicles: Vec<WorldVehicle>,
    /// Road corridor runs along x at this y coordinate.
    road_y: f32,
}

impl World {
    /// Generates a world with `seed`-deterministic vehicle placement.
    pub fn generate(config: WorldConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let road_y = WORLD_SIZE_M * 0.5;
        let palette: &[Color] = &[
            [0.92, 0.92, 0.92],
            [0.75, 0.75, 0.78],
            [0.12, 0.12, 0.14],
            [0.70, 0.12, 0.10],
            [0.10, 0.20, 0.55],
            [0.45, 0.45, 0.48],
        ];
        let mut vehicles = Vec::with_capacity(config.vehicles);
        for i in 0..config.vehicles {
            let on_road = (i as f32 / config.vehicles.max(1) as f32) < ON_ROAD_FRACTION;
            let (x, y, angle) = if on_road {
                (
                    rng.gen_range(0.0..WORLD_SIZE_M),
                    road_y + rng.gen_range(-ROAD_HALF_WIDTH_M * 0.8..ROAD_HALF_WIDTH_M * 0.8),
                    rng.gen_range(-0.1..0.1f32)
                        + if rng.gen() { 0.0 } else { std::f32::consts::PI },
                )
            } else {
                (
                    rng.gen_range(0.0..WORLD_SIZE_M),
                    rng.gen_range(0.0..WORLD_SIZE_M),
                    rng.gen_range(0.0..std::f32::consts::TAU),
                )
            };
            vehicles.push(WorldVehicle {
                x,
                y,
                angle,
                length: rng.gen_range(3.8..5.4),
                width: rng.gen_range(1.7..2.1),
                color: palette[rng.gen_range(0..palette.len())],
            });
        }
        World {
            config,
            vehicles,
            road_y,
        }
    }

    /// The vehicles in this world.
    pub fn vehicles(&self) -> &[WorldVehicle] {
        &self.vehicles
    }

    /// World configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }
}

/// Nadir camera intrinsics/state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Camera centre x in metres.
    pub x: f32,
    /// Camera centre y in metres.
    pub y: f32,
    /// Altitude above ground in metres.
    pub altitude_m: f32,
    /// Full field of view in radians (square sensor assumed).
    pub fov_rad: f32,
    /// Output frame side length in pixels.
    pub frame_px: usize,
}

impl Camera {
    /// Ground footprint side length in metres.
    pub fn footprint_m(&self) -> f32 {
        2.0 * self.altitude_m * (self.fov_rad / 2.0).tan()
    }

    /// Ground sampling distance: metres per pixel.
    pub fn meters_per_pixel(&self) -> f32 {
        self.footprint_m() / self.frame_px as f32
    }

    /// Expected pixel length of an object `len_m` metres long.
    pub fn expected_pixel_size(&self, len_m: f32) -> f32 {
        len_m / self.meters_per_pixel()
    }
}

/// One simulated camera frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Rendered nadir view.
    pub image: Image,
    /// Ground truth for annotatable vehicles in the frame.
    pub annotations: Vec<Annotation>,
    /// Camera state when the frame was captured.
    pub camera: Camera,
    /// Frame index within the flight.
    pub index: usize,
}

impl Frame {
    /// Converts the frame into a [`Scene`](crate::scene::Scene) so flight
    /// footage can join a training dataset
    /// ([`VehicleDataset::from_scenes`](crate::dataset::VehicleDataset::from_scenes)) —
    /// the paper's "urban traffic video footage from a UAV" data source.
    pub fn into_scene(self) -> crate::scene::Scene {
        crate::scene::Scene {
            image: self.image,
            all_objects: self.annotations.clone(),
            annotations: self.annotations,
            kind: SceneKind::Road,
        }
    }
}

/// A waypoint of a flight plan: position and altitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// x position in metres.
    pub x: f32,
    /// y position in metres.
    pub y: f32,
    /// Altitude in metres.
    pub altitude_m: f32,
}

/// Flight simulator: interpolates a trajectory over a [`World`] and renders
/// a frame stream.
#[derive(Debug, Clone)]
pub struct FlightSimulator {
    world: World,
    waypoints: Vec<Waypoint>,
    /// Distance flown between consecutive frames, in metres.
    step_m: f32,
    fov_rad: f32,
    frame_px: usize,
    /// Precomputed cumulative distances along the waypoint polyline.
    cumdist: Vec<f32>,
    next_index: usize,
    total_frames: usize,
}

impl FlightSimulator {
    /// Creates a simulator flying `waypoints` over `world`.
    ///
    /// `speed_mps / camera_fps` determines the ground distance between
    /// frames; `frame_px` is the rendered frame side length.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when fewer than two waypoints are
    /// given or speed/fps are non-positive.
    pub fn new(
        world: World,
        waypoints: Vec<Waypoint>,
        speed_mps: f32,
        camera_fps: f32,
        frame_px: usize,
    ) -> Self {
        assert!(
            waypoints.len() >= 2,
            "a flight needs at least two waypoints"
        );
        assert!(
            speed_mps > 0.0 && camera_fps > 0.0,
            "speed and fps must be positive"
        );
        let mut cumdist = vec![0.0f32];
        for pair in waypoints.windows(2) {
            let d = ((pair[1].x - pair[0].x).powi(2) + (pair[1].y - pair[0].y).powi(2)).sqrt();
            cumdist.push(cumdist.last().unwrap() + d);
        }
        let total_dist = *cumdist.last().unwrap();
        let step_m = speed_mps / camera_fps;
        let total_frames = (total_dist / step_m).floor() as usize + 1;
        FlightSimulator {
            world,
            waypoints,
            step_m,
            fov_rad: 60f32.to_radians(),
            frame_px,
            cumdist,
            next_index: 0,
            total_frames,
        }
    }

    /// Total frames this flight will produce.
    pub fn total_frames(&self) -> usize {
        self.total_frames
    }

    /// The world being overflown.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Camera state at a given along-track distance.
    fn camera_at(&self, dist: f32) -> Camera {
        let total = *self.cumdist.last().unwrap();
        let d = dist.clamp(0.0, total);
        let seg = self
            .cumdist
            .windows(2)
            .position(|w| d >= w[0] && d <= w[1])
            .unwrap_or(self.waypoints.len() - 2);
        let t0 = self.cumdist[seg];
        let t1 = self.cumdist[seg + 1];
        let f = if t1 > t0 { (d - t0) / (t1 - t0) } else { 0.0 };
        let a = &self.waypoints[seg];
        let b = &self.waypoints[seg + 1];
        Camera {
            x: a.x + (b.x - a.x) * f,
            y: a.y + (b.y - a.y) * f,
            altitude_m: a.altitude_m + (b.altitude_m - a.altitude_m) * f,
            fov_rad: self.fov_rad,
            frame_px: self.frame_px,
        }
    }

    /// Renders the frame seen by `camera`.
    pub fn render(&self, camera: &Camera, index: usize) -> Frame {
        let px = camera.frame_px;
        let mpp = camera.meters_per_pixel();
        let footprint = camera.footprint_m();
        let origin_x = camera.x - footprint / 2.0;
        let origin_y = camera.y - footprint / 2.0;

        // Background: grass with the road corridor where it crosses the view.
        let mut image = Image::new(px, px, [0.30, 0.42, 0.24]);
        let road_top = (self.world.road_y - ROAD_HALF_WIDTH_M - origin_y) / mpp;
        let road_h = 2.0 * ROAD_HALF_WIDTH_M / mpp;
        image.fill_rect(0.0, road_top, px as f32, road_h, [0.33, 0.33, 0.35]);
        // Centre line.
        let cy = road_top + road_h / 2.0;
        let dash = (6.0 / mpp).max(2.0);
        let mut x = 0.0;
        while x < px as f32 {
            image.fill_rect(x, cy - 0.6, dash * 0.5, 1.2, [0.85, 0.85, 0.8]);
            x += dash;
        }

        // Vehicles.
        let mut annotations = Vec::new();
        for v in &self.world.vehicles {
            let ix = (v.x - origin_x) / mpp;
            let iy = (v.y - origin_y) / mpp;
            let len_px = v.length / mpp;
            let wid_px = v.width / mpp;
            // Quick reject: far outside the frame.
            let margin = len_px;
            if ix < -margin || iy < -margin || ix > px as f32 + margin || iy > px as f32 + margin {
                continue;
            }
            // Shadow + body + cabin, like the scene generator.
            image.blend_rotated_rect(
                ix + len_px * 0.08,
                iy + len_px * 0.10,
                len_px,
                wid_px,
                v.angle,
                [0.05, 0.05, 0.05],
                0.4,
            );
            image.fill_rotated_rect(ix, iy, len_px, wid_px, v.angle, v.color);
            let cabin = [v.color[0] * 0.75, v.color[1] * 0.75, v.color[2] * 0.75];
            image.fill_rotated_rect(ix, iy, len_px * 0.55, wid_px * 0.8, v.angle, cabin);

            let (sin, cos) = v.angle.sin_cos();
            let bw = (len_px * cos.abs() + wid_px * sin.abs()) / px as f32;
            let bh = (len_px * sin.abs() + wid_px * cos.abs()) / px as f32;
            let bbox = BBox::new(ix / px as f32, iy / px as f32, bw, bh);
            let visibility = bbox.visible_fraction();
            if visibility > 0.0 {
                annotations.push(Annotation {
                    bbox: bbox.clamp_unit(),
                    class: 0,
                    visibility,
                });
            }
        }
        annotations.retain(Annotation::is_annotatable);
        Frame {
            image,
            annotations,
            camera: *camera,
            index,
        }
    }

    /// The scene family a frame belongs to (always a road corridor world).
    pub fn kind(&self) -> SceneKind {
        SceneKind::Road
    }
}

impl Iterator for FlightSimulator {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next_index >= self.total_frames {
            return None;
        }
        let camera = self.camera_at(self.next_index as f32 * self.step_m);
        let frame = self.render(&camera, self.next_index);
        self.next_index += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::default(), 42)
    }

    fn simple_flight(altitude: f32, px: usize) -> FlightSimulator {
        FlightSimulator::new(
            world(),
            vec![
                Waypoint {
                    x: 50.0,
                    y: 200.0,
                    altitude_m: altitude,
                },
                Waypoint {
                    x: 350.0,
                    y: 200.0,
                    altitude_m: altitude,
                },
            ],
            10.0,
            2.0,
            px,
        )
    }

    #[test]
    fn camera_geometry() {
        let cam = Camera {
            x: 0.0,
            y: 0.0,
            altitude_m: 50.0,
            fov_rad: 60f32.to_radians(),
            frame_px: 100,
        };
        // footprint = 2 * 50 * tan(30 deg) ~= 57.7 m
        assert!((cam.footprint_m() - 57.735).abs() < 0.01);
        assert!((cam.meters_per_pixel() - 0.577).abs() < 0.01);
        // A 4.5 m car spans ~7.8 px at 50 m altitude.
        assert!((cam.expected_pixel_size(4.5) - 7.79).abs() < 0.1);
    }

    #[test]
    fn higher_altitude_means_smaller_vehicles() {
        let low = Camera {
            x: 0.0,
            y: 0.0,
            altitude_m: 30.0,
            fov_rad: 1.0,
            frame_px: 256,
        };
        let high = Camera {
            altitude_m: 120.0,
            ..low
        };
        assert!(low.expected_pixel_size(4.5) > 3.9 * high.expected_pixel_size(4.5));
    }

    #[test]
    fn flight_produces_expected_frame_count() {
        let sim = simple_flight(60.0, 64);
        // 300 m at 5 m/frame -> 61 frames.
        assert_eq!(sim.total_frames(), 61);
        let frames: Vec<Frame> = sim.collect();
        assert_eq!(frames.len(), 61);
        assert_eq!(frames[0].index, 0);
        assert_eq!(frames[60].index, 60);
    }

    #[test]
    fn frames_over_road_contain_vehicles() {
        let sim = simple_flight(80.0, 96);
        let total: usize = sim.map(|f| f.annotations.len()).sum();
        assert!(total > 20, "flight over the road saw only {total} vehicles");
    }

    #[test]
    fn frames_are_deterministic() {
        let a: Vec<Frame> = simple_flight(60.0, 64).take(3).collect();
        let b: Vec<Frame> = simple_flight(60.0, 64).take(3).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.image, y.image);
            assert_eq!(x.annotations.len(), y.annotations.len());
        }
    }

    #[test]
    fn camera_moves_along_track() {
        let frames: Vec<Frame> = simple_flight(60.0, 64).collect();
        assert!(frames[0].camera.x < frames[10].camera.x);
        assert!((frames[0].camera.y - 200.0).abs() < 1e-3);
    }

    #[test]
    fn altitude_interpolates_between_waypoints() {
        let sim = FlightSimulator::new(
            world(),
            vec![
                Waypoint {
                    x: 0.0,
                    y: 200.0,
                    altitude_m: 40.0,
                },
                Waypoint {
                    x: 100.0,
                    y: 200.0,
                    altitude_m: 120.0,
                },
            ],
            10.0,
            1.0,
            64,
        );
        let frames: Vec<Frame> = sim.collect();
        let first = frames.first().unwrap().camera.altitude_m;
        let last = frames.last().unwrap().camera.altitude_m;
        assert!(first < 50.0 && last > 110.0);
        // Monotone climb.
        for pair in frames.windows(2) {
            assert!(pair[1].camera.altitude_m >= pair[0].camera.altitude_m);
        }
    }

    #[test]
    fn annotations_respect_visibility() {
        for frame in simple_flight(70.0, 96).take(10) {
            for ann in &frame.annotations {
                assert!(ann.visibility >= Annotation::MIN_VISIBILITY);
                ann.bbox.validate().unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn single_waypoint_panics() {
        FlightSimulator::new(
            world(),
            vec![Waypoint {
                x: 0.0,
                y: 0.0,
                altitude_m: 50.0,
            }],
            10.0,
            1.0,
            64,
        );
    }
}
