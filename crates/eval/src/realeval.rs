//! Measured (not modelled) evaluation: run a real detector over synthetic
//! scenes and compute the paper's metrics with actual box matching.
//!
//! This closes the loop the response model abstracts: the end-to-end
//! examples and integration tests *train* our networks on the synthetic
//! dataset with our own loss/optimizer and then measure IoU, sensitivity
//! and precision here — real numbers from real inference.

use dronet_data::dataset::VehicleDataset;
use dronet_data::scene::Scene;
use dronet_detect::{DetectError, Detector};
use dronet_metrics::matching::{match_detections, MatchResult, DEFAULT_IOU_THRESHOLD};
use dronet_metrics::{BBox, DetectionStats, Fps, FpsMeter};

/// Outcome of evaluating a detector over a scene set.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Aggregate detection statistics (sensitivity, precision, mean IoU).
    pub stats: DetectionStats,
    /// Measured inference rate over the evaluation (host hardware).
    pub fps: Fps,
    /// Number of frames evaluated.
    pub frames: usize,
}

impl EvalOutcome {
    /// Combined detection accuracy (F1), the paper's "accuracy" figure.
    pub fn accuracy(&self) -> f32 {
        self.stats.f1()
    }
}

/// Evaluates `detector` on `scenes`, resizing each scene to the detector's
/// input resolution.
///
/// # Errors
///
/// Propagates detector errors.
pub fn evaluate_detector(
    detector: &mut Detector,
    scenes: &[Scene],
) -> Result<EvalOutcome, DetectError> {
    let (_, in_h, _) = detector.input_chw();
    let mut meter = FpsMeter::new();
    let mut total = MatchResult::default();
    for scene in scenes {
        let sample = VehicleDataset::sample(scene, in_h);
        meter.start();
        let detections = detector.detect(&sample.image)?;
        meter.stop();
        let dets: Vec<(BBox, f32)> = detections.iter().map(|d| (d.bbox, d.score())).collect();
        let frame = match_detections(&dets, &sample.boxes, DEFAULT_IOU_THRESHOLD);
        total.merge(&frame);
    }
    Ok(EvalOutcome {
        stats: total.stats(),
        fps: meter.fps(),
        frames: scenes.len(),
    })
}

/// Estimates `k` anchor shapes (in output-grid cells) from a dataset's
/// ground-truth boxes with seeded k-means over (w, h).
///
/// The paper inherits Tiny-YOLO's VOC anchors; for the synthetic dataset's
/// much smaller top-view vehicles, fitting anchors to the data (standard
/// YOLOv2 practice) makes the micro-training examples converge far faster.
///
/// # Panics
///
/// Panics when `k` is zero or the dataset has no annotations.
pub fn estimate_anchors(scenes: &[Scene], grid: usize, k: usize) -> Vec<(f32, f32)> {
    assert!(k > 0, "need at least one anchor");
    let boxes: Vec<(f32, f32)> = scenes
        .iter()
        .flat_map(|s| s.annotations.iter())
        .map(|a| (a.bbox.w * grid as f32, a.bbox.h * grid as f32))
        .collect();
    assert!(!boxes.is_empty(), "no annotations to estimate anchors from");

    // Initialise centroids spread across the sorted size distribution.
    let mut sorted = boxes.clone();
    sorted.sort_by(|a, b| (a.0 * a.1).total_cmp(&(b.0 * b.1)));
    let mut centroids: Vec<(f32, f32)> = (0..k)
        .map(|i| sorted[(i * (sorted.len() - 1)) / k.max(1)])
        .collect();

    for _ in 0..20 {
        let mut sums = vec![(0.0f32, 0.0f32, 0usize); k];
        for &(w, h) in &boxes {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (i, &(cw, ch)) in centroids.iter().enumerate() {
                // 1 - shape IoU, the YOLOv2 anchor distance.
                let inter = w.min(cw) * h.min(ch);
                let union = w * h + cw * ch - inter;
                let d = 1.0 - if union > 0.0 { inter / union } else { 0.0 };
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            sums[best].0 += w;
            sums[best].1 += h;
            sums[best].2 += 1;
        }
        for (i, (sw, sh, n)) in sums.into_iter().enumerate() {
            if n > 0 {
                centroids[i] = (sw / n as f32, sh / n as f32);
            }
        }
    }
    centroids.sort_by(|a, b| (a.0 * a.1).total_cmp(&(b.0 * b.1)));
    // Guard against degenerate zero-size anchors.
    for c in &mut centroids {
        c.0 = c.0.max(0.05);
        c.1 = c.1.max(0.05);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use dronet_data::scene::{SceneConfig, SceneGenerator};
    use dronet_detect::DetectorBuilder;
    use dronet_nn::{Activation, Conv2d, Layer, Network, RegionConfig, RegionLayer};

    fn scenes(n: usize) -> Vec<Scene> {
        let mut gen = SceneGenerator::new(
            SceneConfig {
                width: 64,
                height: 64,
                ..SceneConfig::default()
            },
            11,
        );
        (0..n).map(|_| gen.generate()).collect()
    }

    fn dummy_detector(input: usize) -> Detector {
        let mut net = Network::new(3, input, input);
        net.push(Layer::conv(
            Conv2d::new(3, 6, 3, 1, 1, Activation::Leaky, false).unwrap(),
        ));
        net.push(Layer::region(
            RegionLayer::new(RegionConfig {
                anchors: vec![(1.0, 1.0)],
                classes: 1,
            })
            .unwrap(),
        ));
        DetectorBuilder::new(net).build().unwrap()
    }

    #[test]
    fn evaluation_reports_counts_and_fps() {
        let scenes = scenes(4);
        let mut det = dummy_detector(32);
        let outcome = evaluate_detector(&mut det, &scenes).unwrap();
        assert_eq!(outcome.frames, 4);
        assert!(outcome.fps.0 > 0.0);
        // An untrained detector misses vehicles: false negatives exist.
        assert!(outcome.stats.false_negatives > 0);
        assert!(outcome.accuracy() <= 1.0);
    }

    #[test]
    fn anchors_reflect_object_scale() {
        let scenes = scenes(12);
        let anchors = estimate_anchors(&scenes, 8, 3);
        assert_eq!(anchors.len(), 3);
        // Sorted ascending by area.
        for pair in anchors.windows(2) {
            assert!(pair[0].0 * pair[0].1 <= pair[1].0 * pair[1].1);
        }
        // Synthetic vehicles are ~0.07-0.17 of the image; in 8-cell grid
        // units that is ~0.5-1.4 cells.
        for (w, h) in anchors {
            assert!(w > 0.1 && w < 4.0, "anchor w {w}");
            assert!(h > 0.1 && h < 4.0, "anchor h {h}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn zero_anchors_panics() {
        estimate_anchors(&scenes(1), 8, 0);
    }
}
