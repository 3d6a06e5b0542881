//! Seeded dataset generation with train/test splits.
//!
//! The paper collected 350 images with ~5000 vehicles; [`VehicleDataset`]
//! produces an arbitrary number of synthetic scenes with the same role:
//! training and evaluating the detectors under identical conditions across
//! experiments (same seed → same data).

use crate::scene::{Scene, SceneConfig, SceneGenerator};
use dronet_metrics::BBox;
use dronet_tensor::Tensor;

/// A generated set of scenes with a fixed train/test split.
#[derive(Debug, Clone)]
pub struct VehicleDataset {
    scenes: Vec<Scene>,
    train_len: usize,
}

/// One training/evaluation sample: the image as an NCHW tensor plus its
/// ground-truth boxes.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `[1, 3, h, w]` image tensor with values in `[0, 1]`.
    pub image: Tensor,
    /// Annotated vehicle boxes (normalised).
    pub boxes: Vec<BBox>,
}

impl VehicleDataset {
    /// Generates `count` scenes and splits off the first
    /// `count * train_fraction` as the training set.
    ///
    /// # Panics
    ///
    /// Panics when `train_fraction` is outside `[0, 1]` or `count` is zero.
    pub fn generate(config: SceneConfig, count: usize, train_fraction: f32, seed: u64) -> Self {
        assert!(count > 0, "dataset needs at least one scene");
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction {train_fraction} outside [0, 1]"
        );
        let mut gen = SceneGenerator::new(config, seed);
        let scenes: Vec<Scene> = (0..count).map(|_| gen.generate()).collect();
        let train_len = ((count as f32) * train_fraction).round() as usize;
        VehicleDataset { scenes, train_len }
    }

    /// Builds a dataset from pre-rendered scenes — e.g. frames captured
    /// from the [flight simulator](crate::flight), mirroring the paper's
    /// third data source ("collecting urban traffic video footage from a
    /// UAV"), or a mix of sources.
    ///
    /// # Panics
    ///
    /// Panics when `scenes` is empty or `train_fraction` is outside
    /// `[0, 1]`.
    pub fn from_scenes(scenes: Vec<Scene>, train_fraction: f32) -> Self {
        assert!(!scenes.is_empty(), "dataset needs at least one scene");
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction {train_fraction} outside [0, 1]"
        );
        let train_len = ((scenes.len() as f32) * train_fraction).round() as usize;
        VehicleDataset { scenes, train_len }
    }

    /// All scenes.
    pub fn scenes(&self) -> &[Scene] {
        &self.scenes
    }

    /// Training-split scenes.
    pub fn train(&self) -> &[Scene] {
        &self.scenes[..self.train_len]
    }

    /// Test-split scenes.
    pub fn test(&self) -> &[Scene] {
        &self.scenes[self.train_len..]
    }

    /// Total number of annotated vehicles across all scenes.
    pub fn total_vehicles(&self) -> usize {
        self.scenes.iter().map(|s| s.annotations.len()).sum()
    }

    /// Converts a scene into a training sample, resizing to
    /// `input x input` pixels (the paper's input-size sweep re-uses the
    /// same scenes at several network input sizes; boxes are normalised so
    /// they survive resizing unchanged).
    pub fn sample(scene: &Scene, input: usize) -> Sample {
        let image = if scene.image.width() == input && scene.image.height() == input {
            scene.image.to_tensor()
        } else {
            scene.image.resize(input, input).to_tensor()
        };
        Sample {
            image,
            boxes: scene.annotations.iter().map(|a| a.bbox).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SceneConfig {
        SceneConfig {
            width: 64,
            height: 64,
            ..SceneConfig::default()
        }
    }

    #[test]
    fn split_sizes() {
        let ds = VehicleDataset::generate(config(), 10, 0.8, 1);
        assert_eq!(ds.train().len(), 8);
        assert_eq!(ds.test().len(), 2);
        assert_eq!(ds.scenes().len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = VehicleDataset::generate(config(), 4, 0.5, 9);
        let b = VehicleDataset::generate(config(), 4, 0.5, 9);
        for (x, y) in a.scenes().iter().zip(b.scenes()) {
            assert_eq!(x.image, y.image);
        }
    }

    #[test]
    fn samples_resize_but_keep_boxes() {
        let ds = VehicleDataset::generate(config(), 2, 0.5, 2);
        let scene = &ds.scenes()[0];
        let s64 = VehicleDataset::sample(scene, 64);
        let s32 = VehicleDataset::sample(scene, 32);
        assert_eq!(s64.image.shape().dims(), &[1, 3, 64, 64]);
        assert_eq!(s32.image.shape().dims(), &[1, 3, 32, 32]);
        assert_eq!(s64.boxes, s32.boxes);
    }

    #[test]
    fn vehicle_totals_accumulate() {
        let ds = VehicleDataset::generate(config(), 6, 0.5, 3);
        assert_eq!(
            ds.total_vehicles(),
            ds.scenes()
                .iter()
                .map(|s| s.annotations.len())
                .sum::<usize>()
        );
        assert!(ds.total_vehicles() > 0);
    }

    #[test]
    fn iterators_cover_the_splits() {
        let ds = VehicleDataset::generate(config(), 5, 0.6, 4);
        assert_eq!(ds.train().len(), 3);
        assert_eq!(ds.test().len(), 2);
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn bad_fraction_panics() {
        VehicleDataset::generate(config(), 3, 1.5, 0);
    }

    #[test]
    fn from_scenes_splits_prebuilt_scenes() {
        let prebuilt = VehicleDataset::generate(config(), 6, 0.5, 8)
            .scenes()
            .to_vec();
        let ds = VehicleDataset::from_scenes(prebuilt.clone(), 0.5);
        assert_eq!(ds.train().len(), 3);
        assert_eq!(ds.test().len(), 3);
        assert_eq!(ds.scenes()[0].image, prebuilt[0].image);
    }

    #[test]
    #[should_panic(expected = "at least one scene")]
    fn from_scenes_rejects_empty() {
        VehicleDataset::from_scenes(Vec::new(), 0.5);
    }

    #[test]
    fn flight_frames_convert_to_scenes() {
        use crate::flight::{FlightSimulator, Waypoint, World, WorldConfig};
        let world = World::generate(WorldConfig::default(), 1);
        let flight = FlightSimulator::new(
            world,
            vec![
                Waypoint {
                    x: 50.0,
                    y: 200.0,
                    altitude_m: 25.0,
                },
                Waypoint {
                    x: 150.0,
                    y: 200.0,
                    altitude_m: 25.0,
                },
            ],
            10.0,
            1.0,
            64,
        );
        let scenes: Vec<_> = flight.map(|f| f.into_scene()).collect();
        assert!(!scenes.is_empty());
        let ds = VehicleDataset::from_scenes(scenes, 0.8);
        assert!(ds.train().len() >= ds.test().len());
        for scene in ds.scenes() {
            assert_eq!(scene.image.width(), 64);
            for ann in &scene.annotations {
                assert!(ann.bbox.validate().is_ok());
            }
        }
    }
}
