//! Procedural top-view traffic scene generation.
//!
//! Replaces the paper's proprietary 350-image aerial dataset (satellite
//! crops, web images, UAV footage). The generator reproduces the dataset's
//! documented variability axes — illumination, viewpoint (orientation),
//! occlusion, colour and vehicle type/scale — on top of three background
//! families (road corridor, parking area, open terrain), so a detector that
//! learns here faces the same statistical task the paper's detector faced.

use crate::{Annotation, Color, Image};
use dronet_metrics::BBox;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What kind of environment a scene depicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// A road corridor with lane markings; vehicles mostly aligned with it.
    Road,
    /// A parking area with a regular grid of mostly-parallel vehicles.
    Parking,
    /// Open terrain (grass/soil) with sparse, freely oriented vehicles.
    Terrain,
}

/// Illumination gain range applied to the whole frame.
const ILLUMINATION: (f32, f32) = (0.65, 1.25);
/// Standard deviation of additive pixel noise (sensor grain).
const NOISE_STD: f32 = 0.015;
/// Probability that a vehicle is placed partially outside the frame.
const EDGE_PROB: f32 = 0.10;

/// Configuration for the scene generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Canvas width in pixels.
    pub width: usize,
    /// Canvas height in pixels.
    pub height: usize,
    /// Minimum vehicles per scene (before visibility filtering).
    pub min_vehicles: usize,
    /// Maximum vehicles per scene.
    pub max_vehicles: usize,
    /// Vehicle length range as a fraction of the smaller image dimension.
    /// Top-view vehicles from UAV altitude are small; the default range
    /// matches the grid-cell scale the paper's 13x13–19x19 output grids
    /// resolve.
    pub vehicle_len_frac: (f32, f32),
    /// Per-vehicle probability of partial occlusion by foliage.
    pub occlusion_prob: f32,
    /// Pedestrians per scene (0 in the paper's vehicle-only dataset; the
    /// paper's §V future work adds this class — see class index 1).
    pub max_pedestrians: usize,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            width: 256,
            height: 256,
            min_vehicles: 4,
            max_vehicles: 14,
            vehicle_len_frac: (0.06, 0.14),
            occlusion_prob: 0.12,
            max_pedestrians: 0,
        }
    }
}

impl SceneConfig {
    /// Validates the configuration, panicking with a clear message on
    /// nonsense values. Used by constructors.
    fn assert_valid(&self) {
        assert!(
            self.width >= 32 && self.height >= 32,
            "scene must be at least 32x32"
        );
        assert!(
            self.min_vehicles <= self.max_vehicles,
            "min_vehicles {} exceeds max_vehicles {}",
            self.min_vehicles,
            self.max_vehicles
        );
        assert!(
            self.vehicle_len_frac.0 > 0.0 && self.vehicle_len_frac.0 <= self.vehicle_len_frac.1,
            "invalid vehicle length range {:?}",
            self.vehicle_len_frac
        );
    }
}

/// A generated scene: the rendered image, the annotations that satisfy the
/// paper's 50%-visibility rule, and every placed object (for analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Rendered RGB frame.
    pub image: Image,
    /// Annotatable ground truth (visibility >= 50%).
    pub annotations: Vec<Annotation>,
    /// All placed vehicles, including barely visible ones.
    pub all_objects: Vec<Annotation>,
    /// The environment family this scene belongs to.
    pub kind: SceneKind,
}

/// Seeded procedural scene generator.
///
/// # Example
///
/// ```
/// use dronet_data::scene::{SceneConfig, SceneGenerator};
/// let mut gen = SceneGenerator::new(SceneConfig::default(), 7);
/// let a = gen.generate();
/// let mut gen2 = SceneGenerator::new(SceneConfig::default(), 7);
/// let b = gen2.generate();
/// assert_eq!(a.image, b.image); // same seed, same scene
/// ```
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    config: SceneConfig,
    rng: StdRng,
}

/// Body colour palette reflecting real top-view car statistics: mostly
/// white/silver/black/grey plus saturated accents.
const VEHICLE_COLORS: &[Color] = &[
    [0.92, 0.92, 0.92], // white
    [0.75, 0.75, 0.78], // silver
    [0.12, 0.12, 0.14], // black
    [0.45, 0.45, 0.48], // grey
    [0.70, 0.12, 0.10], // red
    [0.10, 0.20, 0.55], // blue
    [0.12, 0.35, 0.18], // green
    [0.80, 0.65, 0.15], // yellow/taxi
];

impl SceneGenerator {
    /// Creates a generator with the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (tiny canvas, reversed
    /// ranges).
    pub fn new(config: SceneConfig, seed: u64) -> Self {
        config.assert_valid();
        SceneGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Generates the next scene.
    pub fn generate(&mut self) -> Scene {
        let kind = match self.rng.gen_range(0..3) {
            0 => SceneKind::Road,
            1 => SceneKind::Parking,
            _ => SceneKind::Terrain,
        };
        self.generate_kind(kind)
    }

    /// Generates a scene of a specific kind.
    pub fn generate_kind(&mut self, kind: SceneKind) -> Scene {
        let (w, h) = (self.config.width as f32, self.config.height as f32);
        let mut image = match kind {
            SceneKind::Road => self.render_road_background(),
            SceneKind::Parking => self.render_parking_background(),
            SceneKind::Terrain => self.render_terrain_background(),
        };

        let count = self
            .rng
            .gen_range(self.config.min_vehicles..=self.config.max_vehicles);
        let mut placed: Vec<(BBox, f32)> = Vec::new(); // (bbox, angle)
        let mut all_objects = Vec::new();

        for _ in 0..count {
            let Some((cx, cy, len, angle)) = self.place_vehicle(kind, &placed) else {
                continue;
            };
            let wid = len * self.rng.gen_range(0.42..0.52);
            let color = VEHICLE_COLORS[self.rng.gen_range(0..VEHICLE_COLORS.len())];
            self.draw_vehicle(&mut image, cx, cy, len, wid, angle, color);

            // Axis-aligned bounds of the rotated body.
            let (sin, cos) = angle.sin_cos();
            let bw = (len * cos.abs() + wid * sin.abs()) / w;
            let bh = (len * sin.abs() + wid * cos.abs()) / h;
            let bbox = BBox::new(cx / w, cy / h, bw, bh);
            placed.push((bbox, angle));

            let mut visibility = bbox.visible_fraction();
            // Foliage occlusion.
            if self.rng.gen::<f32>() < self.config.occlusion_prob {
                let r = len * self.rng.gen_range(0.3..0.7);
                let ox = cx + self.rng.gen_range(-len * 0.6..len * 0.6);
                let oy = cy + self.rng.gen_range(-len * 0.6..len * 0.6);
                let foliage = [
                    0.10 + self.rng.gen_range(0.0..0.08),
                    0.30 + self.rng.gen_range(0.0..0.15),
                    0.08,
                ];
                image.fill_circle(ox, oy, r, foliage);
                visibility *= 1.0 - occluded_fraction(&bbox, ox / w, oy / h, r / w, r / h);
            }
            all_objects.push(Annotation {
                bbox: bbox.clamp_unit(),
                class: 0,
                visibility,
            });
        }

        // Pedestrians — the paper's future-work second class. From nadir a
        // person is a small bright/dark dot with a head highlight and a
        // long soft shadow; much smaller than a vehicle.
        if self.config.max_pedestrians > 0 {
            let count = self.rng.gen_range(0..=self.config.max_pedestrians);
            let min_dim = w.min(h);
            for _ in 0..count {
                let px = self.rng.gen_range(0.0..w);
                let py = self.rng.gen_range(0.0..h);
                let r = min_dim * self.rng.gen_range(0.012..0.022);
                // Avoid dropping a pedestrian onto a vehicle.
                let bbox = BBox::new(px / w, py / h, 3.0 * r / w, 3.0 * r / h);
                if placed.iter().any(|(v, _)| bbox.iou(v) > 0.05) {
                    continue;
                }
                // Shadow streak, torso disc, head highlight.
                image.blend_rotated_rect(
                    px + 2.0 * r,
                    py + 2.0 * r,
                    4.0 * r,
                    1.2 * r,
                    std::f32::consts::FRAC_PI_4,
                    [0.05, 0.05, 0.05],
                    0.35,
                );
                let shirt = [
                    self.rng.gen_range(0.2..0.95),
                    self.rng.gen_range(0.2..0.95),
                    self.rng.gen_range(0.2..0.95),
                ];
                image.fill_circle(px, py, r, shirt);
                image.fill_circle(px, py, r * 0.45, [0.35, 0.25, 0.2]);
                let visibility = bbox.visible_fraction();
                all_objects.push(Annotation {
                    bbox: bbox.clamp_unit(),
                    class: 1,
                    visibility,
                });
            }
        }

        // Global photometric variation: illumination gain + sensor noise.
        let gain = self.rng.gen_range(ILLUMINATION.0..ILLUMINATION.1);
        image.scale_brightness(gain);
        let rng = &mut self.rng;
        image.add_noise_with(|| {
            // Cheap triangular noise approximating a Gaussian.
            (rng.gen::<f32>() + rng.gen::<f32>() - 1.0) * NOISE_STD * 2.0
        });

        let annotations = all_objects
            .iter()
            .copied()
            .filter(Annotation::is_annotatable)
            .collect();
        Scene {
            image,
            annotations,
            all_objects,
            kind,
        }
    }

    /// Finds a placement for a vehicle, avoiding heavy overlap with the
    /// already placed ones. Returns `(cx, cy, len_px, angle)` in pixels, or
    /// `None` when no free spot was found.
    fn place_vehicle(
        &mut self,
        kind: SceneKind,
        placed: &[(BBox, f32)],
    ) -> Option<(f32, f32, f32, f32)> {
        let (w, h) = (self.config.width as f32, self.config.height as f32);
        let min_dim = w.min(h);
        for _attempt in 0..24 {
            let len = min_dim
                * self
                    .rng
                    .gen_range(self.config.vehicle_len_frac.0..self.config.vehicle_len_frac.1);
            let at_edge = self.rng.gen::<f32>() < EDGE_PROB;
            let (cx, cy, angle) = match kind {
                SceneKind::Road => {
                    // Road band runs horizontally through the middle third.
                    let band_y = h * 0.5;
                    let band_half = h * 0.12;
                    let cy = band_y + self.rng.gen_range(-band_half..band_half);
                    let cx = if at_edge {
                        if self.rng.gen() {
                            self.rng.gen_range(-len * 0.4..len * 0.4)
                        } else {
                            w + self.rng.gen_range(-len * 0.4..len * 0.4)
                        }
                    } else {
                        self.rng.gen_range(0.0..w)
                    };
                    let angle = self.rng.gen_range(-0.12..0.12f32)
                        + if self.rng.gen() {
                            0.0
                        } else {
                            std::f32::consts::PI
                        };
                    (cx, cy, angle)
                }
                SceneKind::Parking => {
                    // Grid slots, vertical orientation with jitter.
                    let cols = 6.max((w / (len * 1.6)) as usize);
                    let col = self.rng.gen_range(0..cols);
                    let cx = (col as f32 + 0.5) * w / cols as f32 + self.rng.gen_range(-2.0..2.0);
                    let cy = if at_edge {
                        if self.rng.gen() {
                            self.rng.gen_range(-len * 0.4..len * 0.4)
                        } else {
                            h + self.rng.gen_range(-len * 0.4..len * 0.4)
                        }
                    } else {
                        self.rng.gen_range(h * 0.1..h * 0.9)
                    };
                    let angle = std::f32::consts::FRAC_PI_2 + self.rng.gen_range(-0.08..0.08);
                    (cx, cy, angle)
                }
                SceneKind::Terrain => {
                    let cx = if at_edge {
                        self.rng.gen_range(-len * 0.4..len * 0.4)
                    } else {
                        self.rng.gen_range(0.0..w)
                    };
                    let cy = self.rng.gen_range(0.0..h);
                    let angle = self.rng.gen_range(0.0..std::f32::consts::TAU);
                    (cx, cy, angle)
                }
            };
            let bbox = BBox::new(cx / w, cy / h, len * 1.2 / w, len * 1.2 / h);
            let overlaps = placed.iter().any(|(other, _)| bbox.iou(other) > 0.15);
            if !overlaps {
                return Some((cx, cy, len, angle));
            }
        }
        None
    }

    /// Draws one structured vehicle sprite; see [`draw_vehicle_sprite`].
    #[allow(clippy::too_many_arguments)] // sprite pose + dimensions, all scalar
    fn draw_vehicle(
        &mut self,
        image: &mut Image,
        cx: f32,
        cy: f32,
        len: f32,
        wid: f32,
        angle: f32,
        color: Color,
    ) {
        draw_vehicle_sprite(image, cx, cy, len, wid, angle, color);
    }

    fn render_road_background(&mut self) -> Image {
        let (w, h) = (self.config.width, self.config.height);
        let grass = self.jitter_color([0.28, 0.42, 0.22], 0.05);
        let mut image = Image::new(w, h, grass);
        self.speckle(&mut image, 600, 1.5, [0.20, 0.33, 0.16]);
        // Asphalt band across the middle.
        let band_y = h as f32 * 0.30;
        let band_h = h as f32 * 0.40;
        let asphalt = self.jitter_color([0.32, 0.32, 0.34], 0.03);
        image.fill_rect(0.0, band_y, w as f32, band_h, asphalt);
        // Edge lines.
        let line = [0.85, 0.85, 0.80];
        image.fill_rect(0.0, band_y + 1.0, w as f32, 1.5, line);
        image.fill_rect(0.0, band_y + band_h - 2.5, w as f32, 1.5, line);
        // Dashed centre line.
        let cy = band_y + band_h / 2.0;
        let dash = w as f32 / 16.0;
        let mut x = 0.0;
        while x < w as f32 {
            image.fill_rect(x, cy - 0.8, dash * 0.55, 1.6, line);
            x += dash;
        }
        image
    }

    fn render_parking_background(&mut self) -> Image {
        let (w, h) = (self.config.width, self.config.height);
        let asphalt = self.jitter_color([0.36, 0.36, 0.38], 0.04);
        let mut image = Image::new(w, h, asphalt);
        self.speckle(&mut image, 400, 1.0, [0.30, 0.30, 0.32]);
        // Bay separator lines.
        let cols = 6;
        for c in 0..=cols {
            let x = c as f32 * w as f32 / cols as f32;
            image.fill_rect(
                x - 0.7,
                h as f32 * 0.05,
                1.4,
                h as f32 * 0.9,
                [0.8, 0.8, 0.75],
            );
        }
        image
    }

    fn render_terrain_background(&mut self) -> Image {
        let (w, h) = (self.config.width, self.config.height);
        let base = if self.rng.gen() {
            self.jitter_color([0.30, 0.40, 0.22], 0.06) // grass
        } else {
            self.jitter_color([0.45, 0.38, 0.28], 0.06) // soil
        };
        let mut image = Image::new(w, h, base);
        self.speckle(
            &mut image,
            900,
            2.0,
            [base[0] * 0.8, base[1] * 0.8, base[2] * 0.8],
        );
        // A building or two.
        for _ in 0..self.rng.gen_range(0..3) {
            let bw = self.rng.gen_range(0.1..0.25) * w as f32;
            let bh = self.rng.gen_range(0.1..0.25) * h as f32;
            let bx = self.rng.gen_range(0.0..w as f32 - bw);
            let by = self.rng.gen_range(0.0..h as f32 - bh);
            let tone = self.rng.gen_range(0.5..0.75);
            image.fill_rect(bx, by, bw, bh, [tone, tone, tone * 0.95]);
        }
        // Trees.
        for _ in 0..self.rng.gen_range(2..8) {
            let r = self.rng.gen_range(0.02..0.06) * w as f32;
            let x = self.rng.gen_range(0.0..w as f32);
            let y = self.rng.gen_range(0.0..h as f32);
            image.fill_circle(x, y, r, [0.10, 0.28, 0.10]);
        }
        image
    }

    fn speckle(&mut self, image: &mut Image, count: usize, max_r: f32, color: Color) {
        let (w, h) = (image.width() as f32, image.height() as f32);
        for _ in 0..count {
            let x = self.rng.gen_range(0.0..w);
            let y = self.rng.gen_range(0.0..h);
            let r = self.rng.gen_range(0.4..max_r.max(0.5));
            image.fill_circle(x, y, r, color);
        }
    }

    fn jitter_color(&mut self, base: Color, amount: f32) -> Color {
        let mut out = base;
        for c in &mut out {
            *c = (*c + self.rng.gen_range(-amount..amount)).clamp(0.0, 1.0);
        }
        out
    }
}

/// Per-frame per-vehicle random wander amplitude in pixels.
const WANDER_PX: f32 = 1.5;
/// Background speckle density per megapixel.
const SPECKLE_PER_MPX: usize = 1500;

/// Configuration for [`LargeSceneGenerator`] — the wide-area frame mode
/// that gives selective tile processing structure to exploit: a big
/// mostly-static canvas, a handful of vehicle clusters that drift
/// coherently, and per-vehicle wander inside each cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeSceneConfig {
    /// Canvas width in pixels (64..=[`LargeSceneConfig::MAX_DIM`]).
    pub width: usize,
    /// Canvas height in pixels (64..=[`LargeSceneConfig::MAX_DIM`]).
    pub height: usize,
    /// Number of vehicle clusters.
    pub clusters: usize,
    /// Vehicles per cluster.
    pub vehicles_per_cluster: usize,
    /// Cluster radius as a fraction of the smaller canvas dimension.
    pub cluster_radius_frac: f32,
    /// Vehicle length range in *pixels* (not canvas-relative): vehicles
    /// stay detector-scale small no matter how large the frame grows —
    /// the whole point of tiling.
    pub vehicle_len_px: (f32, f32),
    /// Per-frame cluster drift speed in pixels.
    pub speed_px: f32,
}

impl Default for LargeSceneConfig {
    fn default() -> Self {
        LargeSceneConfig {
            width: 1408,
            height: 1408,
            clusters: 2,
            vehicles_per_cluster: 6,
            cluster_radius_frac: 0.06,
            vehicle_len_px: (11.0, 18.0),
            speed_px: 6.0,
        }
    }
}

impl LargeSceneConfig {
    /// Largest accepted canvas dimension. Keeps the pixel count bounded
    /// (≤ 67 Mpx) so placement and allocation arithmetic cannot overflow.
    pub const MAX_DIM: usize = 8192;

    /// Checks the configuration without panicking — extreme values come
    /// back as `Err`, never as an arithmetic overflow mid-render.
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.width < 64 || self.height < 64 {
            return Err(format!(
                "canvas {}x{} below the 64x64 minimum",
                self.width, self.height
            ));
        }
        if self.width > Self::MAX_DIM || self.height > Self::MAX_DIM {
            return Err(format!(
                "canvas {}x{} exceeds the {max}x{max} maximum",
                self.width,
                self.height,
                max = Self::MAX_DIM
            ));
        }
        // Everything downstream multiplies these; prove it cannot
        // overflow once here, with checked arithmetic.
        self.width
            .checked_mul(self.height)
            .ok_or_else(|| "canvas area overflows usize".to_string())?;
        let total_vehicles = self
            .clusters
            .checked_mul(self.vehicles_per_cluster)
            .ok_or_else(|| "vehicle count overflows usize".to_string())?;
        if total_vehicles > 4096 {
            return Err(format!("{total_vehicles} vehicles exceeds the 4096 cap"));
        }
        let (lo, hi) = self.vehicle_len_px;
        if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || lo > hi {
            return Err(format!(
                "invalid vehicle length range {:?}",
                self.vehicle_len_px
            ));
        }
        if hi > self.width.min(self.height) as f32 / 2.0 {
            return Err(format!("vehicle length {hi} too large for the canvas"));
        }
        if !self.cluster_radius_frac.is_finite()
            || self.cluster_radius_frac <= 0.0
            || self.cluster_radius_frac > 0.5
        {
            return Err(format!(
                "cluster radius fraction {} outside (0, 0.5]",
                self.cluster_radius_frac
            ));
        }
        if !self.speed_px.is_finite() || self.speed_px < 0.0 {
            return Err(format!(
                "speed_px {} must be finite and >= 0",
                self.speed_px
            ));
        }
        Ok(())
    }
}

/// One vehicle's persistent state inside a cluster.
#[derive(Debug, Clone)]
struct ClusterVehicle {
    /// Offset from the cluster centre, in pixels.
    dx: f32,
    dy: f32,
    len: f32,
    wid: f32,
    angle: f32,
    color: Color,
}

/// One drifting cluster of vehicles.
#[derive(Debug, Clone)]
struct Cluster {
    cx: f32,
    cy: f32,
    vx: f32,
    vy: f32,
    vehicles: Vec<ClusterVehicle>,
}

/// Seeded wide-area frame-sequence generator.
///
/// Unlike [`SceneGenerator`] (independent scenes for training), this
/// produces a *temporally coherent* sequence: the background is rendered
/// once and stays fixed, clusters of vehicles drift across the canvas and
/// bounce off its edges, and individual vehicles wander within their
/// cluster. Frame differencing therefore sees motion exactly where the
/// vehicles are — the workload selective tile processing is built for.
///
/// # Example
///
/// ```
/// use dronet_data::scene::{LargeSceneConfig, LargeSceneGenerator};
/// let config = LargeSceneConfig { width: 256, height: 256, ..LargeSceneConfig::default() };
/// let mut gen = LargeSceneGenerator::new(config, 7).unwrap();
/// let frame = gen.next_frame();
/// assert!(!frame.annotations.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LargeSceneGenerator {
    config: LargeSceneConfig,
    rng: StdRng,
    background: Image,
    clusters: Vec<Cluster>,
    frame_index: u64,
}

impl LargeSceneGenerator {
    /// Creates a generator, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the [`LargeSceneConfig::validate`] message for degenerate
    /// configurations; never panics on extreme sizes.
    pub fn new(config: LargeSceneConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (config.width as f32, config.height as f32);
        let min_dim = w.min(h);
        let radius = min_dim * config.cluster_radius_frac;

        // Static terrain background, rendered once: per-frame differences
        // come only from the vehicles, so frame-difference saliency
        // responds to motion alone.
        let base = [0.30, 0.40, 0.22];
        let mut background = Image::new(config.width, config.height, base);
        let area_mpx = (config.width * config.height).div_ceil(1_000_000).max(1);
        let speckles = SPECKLE_PER_MPX * area_mpx;
        let dark = [base[0] * 0.8, base[1] * 0.8, base[2] * 0.8];
        for _ in 0..speckles {
            let x = rng.gen_range(0.0..w);
            let y = rng.gen_range(0.0..h);
            let r = rng.gen_range(0.5..2.5f32);
            background.fill_circle(x, y, r, dark);
        }

        // Clusters spawn away from the border by one radius so a cluster
        // is initially fully on-canvas; drift can still carry vehicles to
        // (and past) the edge, which is what the edge-churn fixes handle.
        let margin = (radius + config.vehicle_len_px.1).min(min_dim / 2.0 - 1.0);
        let mut clusters = Vec::with_capacity(config.clusters);
        for _ in 0..config.clusters {
            let cx = rng.gen_range(margin..(w - margin).max(margin + 1.0));
            let cy = rng.gen_range(margin..(h - margin).max(margin + 1.0));
            let heading = rng.gen_range(0.0..std::f32::consts::TAU);
            let (sin, cos) = heading.sin_cos();
            let mut vehicles = Vec::with_capacity(config.vehicles_per_cluster);
            for _ in 0..config.vehicles_per_cluster {
                let ang = rng.gen_range(0.0..std::f32::consts::TAU);
                let dist = radius * rng.gen::<f32>().sqrt(); // uniform in disc
                let len = rng.gen_range(config.vehicle_len_px.0..=config.vehicle_len_px.1);
                vehicles.push(ClusterVehicle {
                    dx: dist * ang.cos(),
                    dy: dist * ang.sin(),
                    len,
                    wid: len * rng.gen_range(0.42..0.52),
                    angle: heading + rng.gen_range(-0.3..0.3),
                    color: VEHICLE_COLORS[rng.gen_range(0..VEHICLE_COLORS.len())],
                });
            }
            clusters.push(Cluster {
                cx,
                cy,
                vx: cos * config.speed_px,
                vy: sin * config.speed_px,
                vehicles,
            });
        }

        Ok(LargeSceneGenerator {
            config,
            rng,
            background,
            clusters,
            frame_index: 0,
        })
    }

    /// The generator's configuration.
    pub fn config(&self) -> &LargeSceneConfig {
        &self.config
    }

    /// Frames generated so far.
    pub fn frame_index(&self) -> u64 {
        self.frame_index
    }

    /// Advances the world one step and renders the next frame.
    pub fn next_frame(&mut self) -> Scene {
        let (w, h) = (self.config.width as f32, self.config.height as f32);

        // World update: clusters drift and bounce, vehicles wander.
        for cluster in &mut self.clusters {
            cluster.cx += cluster.vx;
            cluster.cy += cluster.vy;
            if cluster.cx < 0.0 || cluster.cx > w {
                cluster.vx = -cluster.vx;
                cluster.cx = cluster.cx.clamp(0.0, w);
            }
            if cluster.cy < 0.0 || cluster.cy > h {
                cluster.vy = -cluster.vy;
                cluster.cy = cluster.cy.clamp(0.0, h);
            }
            for v in &mut cluster.vehicles {
                v.dx += self.rng.gen_range(-WANDER_PX..=WANDER_PX);
                v.dy += self.rng.gen_range(-WANDER_PX..=WANDER_PX);
            }
        }

        // Render onto a copy of the static background.
        let mut image = self.background.clone();
        let mut all_objects = Vec::new();
        for cluster in &self.clusters {
            for v in &cluster.vehicles {
                let cx = cluster.cx + v.dx;
                let cy = cluster.cy + v.dy;
                // Cull sprites entirely off-canvas (plus shadow margin).
                if cx < -2.0 * v.len
                    || cx > w + 2.0 * v.len
                    || cy < -2.0 * v.len
                    || cy > h + 2.0 * v.len
                {
                    continue;
                }
                draw_vehicle_sprite(&mut image, cx, cy, v.len, v.wid, v.angle, v.color);
                let (sin, cos) = v.angle.sin_cos();
                let bw = (v.len * cos.abs() + v.wid * sin.abs()) / w;
                let bh = (v.len * sin.abs() + v.wid * cos.abs()) / h;
                let bbox = BBox::new(cx / w, cy / h, bw, bh);
                let visibility = bbox.visible_fraction();
                if visibility <= 0.0 {
                    continue;
                }
                all_objects.push(Annotation {
                    bbox: bbox.clamp_unit(),
                    class: 0,
                    visibility,
                });
            }
        }

        self.frame_index += 1;
        let annotations = all_objects
            .iter()
            .copied()
            .filter(Annotation::is_annotatable)
            .collect();
        Scene {
            image,
            annotations,
            all_objects,
            kind: SceneKind::Terrain,
        }
    }
}

/// Draws one structured vehicle sprite: shadow, body, cabin, windshield.
/// The internal structure gives the CNN real sub-features to key on, like
/// real top-view vehicles have. Shared by [`SceneGenerator`] and
/// [`LargeSceneGenerator`] so both render identical vehicles.
#[allow(clippy::too_many_arguments)] // sprite pose + dimensions, all scalar
fn draw_vehicle_sprite(
    image: &mut Image,
    cx: f32,
    cy: f32,
    len: f32,
    wid: f32,
    angle: f32,
    color: Color,
) {
    // Soft shadow offset by the (global) sun direction.
    let shadow_dx = len * 0.10;
    let shadow_dy = len * 0.12;
    image.blend_rotated_rect(
        cx + shadow_dx,
        cy + shadow_dy,
        len,
        wid,
        angle,
        [0.05, 0.05, 0.05],
        0.45,
    );
    // Body.
    image.fill_rotated_rect(cx, cy, len, wid, angle, color);
    // Cabin: slightly darker inset block over the middle.
    let cabin = [color[0] * 0.75, color[1] * 0.75, color[2] * 0.75];
    image.fill_rotated_rect(cx, cy, len * 0.55, wid * 0.82, angle, cabin);
    // Windshield: dark band towards the front of the cabin.
    let (sin, cos) = angle.sin_cos();
    let wx = cx + cos * len * 0.22;
    let wy = cy + sin * len * 0.22;
    image.fill_rotated_rect(wx, wy, len * 0.10, wid * 0.75, angle, [0.08, 0.09, 0.12]);
}

/// Rough fraction of `bbox` covered by an ellipse centred at `(ox, oy)`
/// with radii `(rx, ry)` (all normalised coordinates), estimated on an 8x8
/// sample grid.
fn occluded_fraction(bbox: &BBox, ox: f32, oy: f32, rx: f32, ry: f32) -> f32 {
    const N: usize = 8;
    let mut covered = 0usize;
    for iy in 0..N {
        for ix in 0..N {
            let px = bbox.x0() + bbox.w * (ix as f32 + 0.5) / N as f32;
            let py = bbox.y0() + bbox.h * (iy as f32 + 0.5) / N as f32;
            let dx = (px - ox) / rx.max(1e-6);
            let dy = (py - oy) / ry.max(1e-6);
            if dx * dx + dy * dy <= 1.0 {
                covered += 1;
            }
        }
    }
    covered as f32 / (N * N) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SceneConfig {
        SceneConfig {
            width: 96,
            height: 96,
            ..SceneConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SceneGenerator::new(small_config(), 1).generate();
        let b = SceneGenerator::new(small_config(), 1).generate();
        assert_eq!(a.image, b.image);
        assert_eq!(a.annotations.len(), b.annotations.len());
        let c = SceneGenerator::new(small_config(), 2).generate();
        assert_ne!(a.image, c.image);
    }

    #[test]
    fn annotations_respect_visibility_rule() {
        let mut gen = SceneGenerator::new(small_config(), 3);
        for _ in 0..20 {
            let scene = gen.generate();
            for ann in &scene.annotations {
                assert!(ann.visibility >= Annotation::MIN_VISIBILITY);
                ann.bbox.validate().unwrap();
            }
            assert!(scene.annotations.len() <= scene.all_objects.len());
        }
    }

    #[test]
    fn scenes_contain_vehicles() {
        let mut gen = SceneGenerator::new(small_config(), 4);
        let total: usize = (0..10).map(|_| gen.generate().annotations.len()).sum();
        assert!(total >= 20, "only {total} vehicles across 10 scenes");
    }

    #[test]
    fn boxes_are_inside_unit_square() {
        let mut gen = SceneGenerator::new(small_config(), 5);
        for _ in 0..10 {
            let scene = gen.generate();
            for ann in &scene.annotations {
                assert!(ann.bbox.x0() >= -1e-4 && ann.bbox.x1() <= 1.0 + 1e-4);
                assert!(ann.bbox.y0() >= -1e-4 && ann.bbox.y1() <= 1.0 + 1e-4);
                assert!(ann.bbox.w > 0.0 && ann.bbox.h > 0.0);
            }
        }
    }

    #[test]
    fn all_kinds_render() {
        let mut gen = SceneGenerator::new(small_config(), 6);
        for kind in [SceneKind::Road, SceneKind::Parking, SceneKind::Terrain] {
            let scene = gen.generate_kind(kind);
            assert_eq!(scene.kind, kind);
            assert_eq!(scene.image.width(), 96);
            // The image is not a flat colour.
            let first = scene.image.pixel(0, 0);
            let varied = (0..96).any(|i| scene.image.pixel(i, 48) != first);
            assert!(varied, "{kind:?} scene rendered flat");
        }
    }

    #[test]
    fn vehicles_are_visible_against_background() {
        // Draw a scene, then check that annotated boxes contain pixels that
        // differ from the local background around them.
        let mut gen = SceneGenerator::new(small_config(), 8);
        let scene = gen.generate_kind(SceneKind::Terrain);
        for ann in scene.annotations.iter().take(3) {
            let (x0, y0, x1, y1) = ann.bbox.to_pixels(96, 96);
            let cx = ((x0 + x1) / 2.0) as usize;
            let cy = ((y0 + y1) / 2.0) as usize;
            let inside = scene.image.pixel(cx.min(95), cy.min(95));
            // Some pixel inside differs from the top-left background corner.
            let bg = scene.image.pixel(0, 0);
            let diff: f32 = inside.iter().zip(&bg).map(|(a, b)| (a - b).abs()).sum();
            assert!(diff > 0.01, "vehicle blends into background: {diff}");
        }
    }

    #[test]
    fn occluded_fraction_estimates() {
        let b = BBox::new(0.5, 0.5, 0.2, 0.2);
        // Huge occluder covers everything.
        assert!(occluded_fraction(&b, 0.5, 0.5, 1.0, 1.0) > 0.99);
        // Distant occluder covers nothing.
        assert_eq!(occluded_fraction(&b, 0.0, 0.0, 0.05, 0.05), 0.0);
        // Half-plane-ish occluder covers part.
        let partial = occluded_fraction(&b, 0.4, 0.5, 0.1, 0.2);
        assert!(partial > 0.1 && partial < 0.9, "{partial}");
    }

    fn small_large_config() -> LargeSceneConfig {
        LargeSceneConfig {
            width: 256,
            height: 256,
            ..LargeSceneConfig::default()
        }
    }

    #[test]
    fn large_scene_is_deterministic_and_coherent() {
        let mut a = LargeSceneGenerator::new(small_large_config(), 11).unwrap();
        let mut b = LargeSceneGenerator::new(small_large_config(), 11).unwrap();
        let (a0, a1) = (a.next_frame(), a.next_frame());
        let (b0, b1) = (b.next_frame(), b.next_frame());
        assert_eq!(a0.image, b0.image);
        assert_eq!(a1.image, b1.image);
        assert_eq!(a0.annotations, b0.annotations);
        // The world moves: consecutive frames differ.
        assert_ne!(a0.image, a1.image);
        assert_eq!(a.frame_index(), 2);
    }

    #[test]
    fn large_scene_vehicles_are_small_and_clustered() {
        let mut gen = LargeSceneGenerator::new(small_large_config(), 3).unwrap();
        let scene = gen.next_frame();
        assert!(!scene.annotations.is_empty());
        for ann in &scene.annotations {
            // Pixel-sized vehicles stay small relative to the canvas.
            assert!(ann.bbox.w * 256.0 < 40.0, "vehicle too large: {ann:?}");
            ann.bbox.validate().unwrap();
        }
    }

    #[test]
    fn large_scene_rejects_extremes_without_panicking() {
        // Each of these used to be a potential overflow/allocation panic;
        // validation turns them into typed errors.
        let huge = LargeSceneConfig {
            width: usize::MAX,
            height: usize::MAX,
            ..LargeSceneConfig::default()
        };
        assert!(LargeSceneGenerator::new(huge, 0).is_err());
        let too_many = LargeSceneConfig {
            clusters: usize::MAX,
            vehicles_per_cluster: 2,
            ..small_large_config()
        };
        assert!(LargeSceneGenerator::new(too_many, 0).is_err());
        let nan_speed = LargeSceneConfig {
            speed_px: f32::NAN,
            ..small_large_config()
        };
        assert!(LargeSceneGenerator::new(nan_speed, 0).is_err());
        let bad_len = LargeSceneConfig {
            vehicle_len_px: (10.0, 5.0),
            ..small_large_config()
        };
        assert!(LargeSceneGenerator::new(bad_len, 0).is_err());
        let giant_vehicle = LargeSceneConfig {
            vehicle_len_px: (10.0, 1e9),
            ..small_large_config()
        };
        assert!(LargeSceneGenerator::new(giant_vehicle, 0).is_err());
    }

    #[test]
    fn large_scene_zero_clusters_is_valid_and_empty() {
        let config = LargeSceneConfig {
            clusters: 0,
            ..small_large_config()
        };
        let mut gen = LargeSceneGenerator::new(config, 0).unwrap();
        let scene = gen.next_frame();
        assert!(scene.annotations.is_empty());
        assert!(scene.all_objects.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 32x32")]
    fn tiny_canvas_rejected() {
        SceneGenerator::new(
            SceneConfig {
                width: 8,
                height: 8,
                ..SceneConfig::default()
            },
            0,
        );
    }
}
