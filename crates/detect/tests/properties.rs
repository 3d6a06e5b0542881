//! Property-based tests for the detection pipeline's invariants.

use dronet_detect::fault::{FaultConfig, FaultPlan};
use dronet_detect::nms::non_max_suppression;
use dronet_detect::source::resize_frame;
use dronet_detect::track::{Tracker, TrackerConfig};
use dronet_detect::Detection;
use dronet_metrics::BBox;
use dronet_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn arb_detection() -> impl Strategy<Value = Detection> {
    (
        0.0f32..1.0,
        0.0f32..1.0,
        0.02f32..0.4,
        0.02f32..0.4,
        0.0f32..1.0,
        0usize..3,
    )
        .prop_map(|(cx, cy, w, h, score, class)| Detection {
            bbox: BBox::new(cx, cy, w, h),
            objectness: score,
            class,
            class_prob: 1.0,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NMS output is sorted by score, is a subset of the input, keeps the
    /// global best detection, and is idempotent.
    #[test]
    fn nms_axioms(dets in prop::collection::vec(arb_detection(), 0..30), thr in 0.1f32..0.9) {
        let kept = non_max_suppression(dets.clone(), thr);
        prop_assert!(kept.len() <= dets.len());
        for pair in kept.windows(2) {
            prop_assert!(pair[0].score() >= pair[1].score());
        }
        // Every survivor came from the input.
        for k in &kept {
            prop_assert!(dets.iter().any(|d| d == k));
        }
        // The single best detection always survives.
        if let Some(best) = dets.iter().max_by(|a, b| a.score().total_cmp(&b.score())) {
            prop_assert!(kept.iter().any(|k| (k.score() - best.score()).abs() < 1e-9));
        }
        // Idempotence.
        let twice = non_max_suppression(kept.clone(), thr);
        prop_assert_eq!(kept.len(), twice.len());
    }

    /// After NMS, no two same-class survivors overlap above the threshold.
    #[test]
    fn nms_no_residual_overlap(dets in prop::collection::vec(arb_detection(), 0..20), thr in 0.2f32..0.8) {
        let kept = non_max_suppression(dets, thr);
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                if kept[i].class == kept[j].class {
                    prop_assert!(
                        kept[i].bbox.iou(&kept[j].bbox) <= thr + 1e-5,
                        "residual overlap {}",
                        kept[i].bbox.iou(&kept[j].bbox)
                    );
                }
            }
        }
    }

    /// A raised NMS threshold never keeps fewer detections.
    #[test]
    fn nms_threshold_monotone(dets in prop::collection::vec(arb_detection(), 0..20)) {
        let strict = non_max_suppression(dets.clone(), 0.2);
        let loose = non_max_suppression(dets, 0.8);
        prop_assert!(loose.len() >= strict.len());
    }

    /// Chaos schedules are reproducible: identical (seed, frames, config)
    /// always yields an identical plan, so every chaos scenario can be
    /// replayed from its seed.
    #[test]
    fn fault_plans_are_deterministic(seed in any::<u64>(), frames in 0usize..200) {
        let config = FaultConfig::default();
        let a = FaultPlan::generate(seed, frames, &config);
        let b = FaultPlan::generate(seed, frames, &config);
        prop_assert_eq!(a.slots(), b.slots());
        prop_assert_eq!(a.injected(), b.injected());
        prop_assert!(a.injected() <= frames);
        // Different seeds disagree somewhere, given enough frames.
        if frames >= 100 {
            let c = FaultPlan::generate(seed.wrapping_add(1), frames, &config);
            prop_assert!(a.slots() != c.slots());
        }
    }

    /// Nearest-neighbour resize hits the requested geometry and only ever
    /// emits values present in the source frame.
    #[test]
    fn resize_frame_geometry_and_values(
        ih in 1usize..10, iw in 1usize..10,
        oh in 1usize..10, ow in 1usize..10,
    ) {
        let mut frame = Tensor::zeros(Shape::nchw(1, 2, ih, iw));
        for (i, v) in frame.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let out = resize_frame(&frame, oh, ow);
        prop_assert_eq!(out.shape().dims(), &[1, 2, oh, ow]);
        let src = frame.as_slice();
        for v in out.as_slice() {
            prop_assert!(src.contains(v), "resampled value {v} not in source");
        }
    }

    /// Tracker invariants under arbitrary detection streams: ids are
    /// unique among active tracks, the total count never decreases, and
    /// active tracks never exceed all detections ever seen.
    #[test]
    fn tracker_invariants(
        frames in prop::collection::vec(
            prop::collection::vec(arb_detection(), 0..6),
            1..12
        )
    ) {
        let mut tracker = Tracker::new(TrackerConfig::default());
        let mut last_count = 0u64;
        let mut total_dets = 0usize;
        for frame in &frames {
            total_dets += frame.len();
            tracker.update(frame);
            // ids unique among active tracks
            let mut ids: Vec<u64> = tracker.tracks().iter().map(|t| t.id).collect();
            let before = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), before);
            // monotone vehicle count
            prop_assert!(tracker.total_count() >= last_count);
            last_count = tracker.total_count();
        }
        prop_assert!(tracker.total_count() as usize <= total_dets);
    }
}
