//! Lightweight IoU-based multi-object tracking.
//!
//! The paper motivates DroNet with Road Traffic Monitoring — "searching,
//! collecting and sending, in real time, vehicle information [...] for
//! traffic regulation purposes". Detection alone cannot count vehicles
//! across frames; this tracker associates per-frame detections into tracks
//! so the RTM example can report unique-vehicle counts.

use crate::Detection;
use dronet_metrics::BBox;

/// A tracked object.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Stable identifier, unique within the tracker's lifetime.
    pub id: u64,
    /// Most recent box.
    pub bbox: BBox,
    /// Frames since the track was created.
    pub age: usize,
    /// Total detections associated with this track.
    pub hits: usize,
    /// Consecutive frames without an associated detection.
    pub missed: usize,
}

/// Hits needed before a track is reported.
const MIN_HITS: usize = 2;

/// A track is dropped after this many consecutive missed frames.
const MAX_MISSED: usize = 3;

impl Track {
    /// A track is *confirmed* once it has been seen twice; unconfirmed
    /// tracks are not reported (suppresses one-frame flickers/false
    /// positives).
    pub fn is_confirmed(&self) -> bool {
        self.hits >= MIN_HITS
    }
}

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Minimum IoU to associate a detection with an existing track.
    pub iou_threshold: f32,
    /// Detections smaller than this (normalised area) do not *spawn* new
    /// tracks — they can still extend existing ones. Clipped slivers at a
    /// tile or frame boundary otherwise birth a fresh ID every time an
    /// object straddles an edge. `0.0` (the default) disables the gate.
    pub min_box_area: f32,
    /// Fractional IoU-gate relaxation applied when either box touches the
    /// frame boundary: the effective association threshold becomes
    /// `iou_threshold * (1 - boundary_slack)`. A box clipped by the edge
    /// shrinks, diluting its IoU with the unclipped track; slack keeps the
    /// association alive. `0.0` (the default) preserves old behaviour.
    pub boundary_slack: f32,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            iou_threshold: 0.3,
            min_box_area: 0.0,
            boundary_slack: 0.0,
        }
    }
}

/// How close (normalised) a box edge must be to the frame border to count
/// as boundary-touching for [`TrackerConfig::boundary_slack`].
const EDGE_EPS: f32 = 5e-3;

/// Whether any edge of `b` lies on (or hangs past) the frame border.
fn touches_boundary(b: &BBox) -> bool {
    b.x0() <= EDGE_EPS || b.y0() <= EDGE_EPS || b.x1() >= 1.0 - EDGE_EPS || b.y1() >= 1.0 - EDGE_EPS
}

/// Greedy IoU tracker.
///
/// # Example
///
/// ```
/// use dronet_detect::track::{Tracker, TrackerConfig};
/// use dronet_detect::Detection;
/// use dronet_metrics::BBox;
///
/// let mut tracker = Tracker::new(TrackerConfig::default());
/// let det = Detection {
///     bbox: BBox::new(0.5, 0.5, 0.1, 0.1),
///     objectness: 0.9,
///     class: 0,
///     class_prob: 1.0,
/// };
/// tracker.update(std::slice::from_ref(&det));
/// tracker.update(&[det]);
/// assert_eq!(tracker.confirmed_tracks().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracker {
    config: TrackerConfig,
    tracks: Vec<Track>,
    next_id: u64,
    /// Unique confirmed tracks ever observed (the RTM vehicle count).
    total_confirmed: u64,
}

impl Tracker {
    /// Creates a tracker.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker {
            config,
            tracks: Vec::new(),
            next_id: 0,
            total_confirmed: 0,
        }
    }

    /// Processes one frame of detections, returning the confirmed active
    /// tracks after the update.
    pub fn update(&mut self, detections: &[Detection]) -> Vec<Track> {
        // Greedy association, highest-score detection first.
        let mut det_order: Vec<usize> = (0..detections.len()).collect();
        det_order.sort_by(|&a, &b| detections[b].score().total_cmp(&detections[a].score()));
        let mut track_taken = vec![false; self.tracks.len()];
        let mut det_assigned = vec![false; detections.len()];

        for &di in &det_order {
            let dbox = &detections[di].bbox;
            let mut best: Option<(usize, f32)> = None;
            for (ti, track) in self.tracks.iter().enumerate() {
                if track_taken[ti] {
                    continue;
                }
                let iou = dbox.iou(&track.bbox);
                let mut gate = self.config.iou_threshold;
                if self.config.boundary_slack > 0.0
                    && (touches_boundary(dbox) || touches_boundary(&track.bbox))
                {
                    gate *= 1.0 - self.config.boundary_slack;
                }
                if iou >= gate && best.is_none_or(|(_, b)| iou > b) {
                    best = Some((ti, iou));
                }
            }
            if let Some((ti, _)) = best {
                track_taken[ti] = true;
                det_assigned[di] = true;
                let was_confirmed = self.tracks[ti].is_confirmed();
                let track = &mut self.tracks[ti];
                track.bbox = *dbox;
                track.hits += 1;
                track.missed = 0;
                if !was_confirmed && track.is_confirmed() {
                    self.total_confirmed += 1;
                }
            }
        }

        // Age all tracks; unassociated ones accrue a miss.
        for (ti, track) in self.tracks.iter_mut().enumerate() {
            track.age += 1;
            if !track_taken[ti] {
                track.missed += 1;
            }
        }
        self.tracks.retain(|t| t.missed <= MAX_MISSED);

        // Spawn new tracks for unmatched detections. Boxes below the
        // area floor are assumed to be boundary-clipped fragments of an
        // object some other track already owns: extending a track is
        // fine, founding one is not.
        for (di, det) in detections.iter().enumerate() {
            if !det_assigned[di] {
                if det.bbox.area() < self.config.min_box_area {
                    continue;
                }
                self.tracks.push(Track {
                    id: self.next_id,
                    bbox: det.bbox,
                    age: 1,
                    hits: 1,
                    missed: 0,
                });
                self.next_id += 1;
            }
        }

        self.confirmed_tracks().cloned().collect()
    }

    /// Active tracks that have reached the confirmation threshold.
    pub fn confirmed_tracks(&self) -> impl Iterator<Item = &Track> {
        self.tracks.iter().filter(|t| t.is_confirmed())
    }

    /// All active tracks, confirmed or not.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Unique vehicles counted so far (confirmed tracks over the whole
    /// run, including ones that have since left the frame).
    pub fn total_count(&self) -> u64 {
        self.total_confirmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(cx: f32, cy: f32) -> Detection {
        Detection {
            bbox: BBox::new(cx, cy, 0.1, 0.1),
            objectness: 0.9,
            class: 0,
            class_prob: 1.0,
        }
    }

    #[test]
    fn stable_object_keeps_one_id() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        for i in 0..5 {
            let confirmed = tracker.update(&[det(0.5 + 0.005 * i as f32, 0.5)]);
            if i >= 1 {
                assert_eq!(confirmed.len(), 1);
                assert_eq!(confirmed[0].id, 0);
            }
        }
        assert_eq!(tracker.total_count(), 1);
    }

    #[test]
    fn distinct_objects_get_distinct_ids() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        let frame = vec![det(0.2, 0.2), det(0.8, 0.8)];
        tracker.update(&frame);
        let confirmed = tracker.update(&frame);
        assert_eq!(confirmed.len(), 2);
        assert_ne!(confirmed[0].id, confirmed[1].id);
        assert_eq!(tracker.total_count(), 2);
    }

    #[test]
    fn track_survives_brief_occlusion() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        tracker.update(&[det(0.5, 0.5)]);
        tracker.update(&[det(0.5, 0.5)]);
        // MAX_MISSED empty frames: still alive
        for _ in 0..MAX_MISSED {
            tracker.update(&[]);
        }
        let confirmed = tracker.update(&[det(0.52, 0.5)]);
        assert_eq!(confirmed.len(), 1);
        assert_eq!(confirmed[0].id, 0);
        assert_eq!(tracker.total_count(), 1);
    }

    #[test]
    fn track_dies_after_max_missed() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        tracker.update(&[det(0.5, 0.5)]);
        tracker.update(&[det(0.5, 0.5)]);
        for _ in 0..=MAX_MISSED {
            tracker.update(&[]);
        }
        // Re-appearing now is a NEW track.
        tracker.update(&[det(0.5, 0.5)]);
        let confirmed = tracker.update(&[det(0.5, 0.5)]);
        assert_eq!(confirmed.len(), 1);
        assert_ne!(confirmed[0].id, 0);
        assert_eq!(tracker.total_count(), 2);
    }

    #[test]
    fn one_frame_flicker_is_not_confirmed() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        let confirmed = tracker.update(&[det(0.3, 0.3)]);
        assert!(confirmed.is_empty());
        // Flicker never returns; after expiry nothing was counted.
        for _ in 0..5 {
            tracker.update(&[]);
        }
        assert_eq!(tracker.total_count(), 0);
        assert!(tracker.tracks().is_empty());
    }

    fn det_box(cx: f32, cy: f32, w: f32, h: f32) -> Detection {
        Detection {
            bbox: BBox::new(cx, cy, w, h),
            objectness: 0.9,
            class: 0,
            class_prob: 1.0,
        }
    }

    #[test]
    fn edge_clipped_box_churns_without_slack() {
        // Regression for ID churn at frame edges: a vehicle leaving the
        // frame gets clipped, its box shrinks, and the IoU with the
        // full-box track (0.25 here) drops below the 0.3 gate — so the
        // default config births a second ID for the same object.
        let full = det_box(0.10, 0.5, 0.20, 0.12); // x: [0.0, 0.20]
        let clipped = det_box(0.025, 0.5, 0.05, 0.12); // x: [0.0, 0.05]
        assert!(full.bbox.iou(&clipped.bbox) < 0.3);

        let mut churny = Tracker::new(TrackerConfig::default());
        churny.update(std::slice::from_ref(&full));
        churny.update(std::slice::from_ref(&full));
        churny.update(std::slice::from_ref(&clipped));
        assert_eq!(churny.tracks().len(), 2, "expected the old behaviour");

        // Boundary slack relaxes the gate to 0.3 * 0.75 = 0.225 ≤ 0.25
        // for edge-touching boxes: the clipped detection keeps its ID.
        let mut slack = Tracker::new(TrackerConfig {
            boundary_slack: 0.25,
            ..TrackerConfig::default()
        });
        slack.update(std::slice::from_ref(&full));
        slack.update(&[full]);
        let confirmed = slack.update(&[clipped]);
        assert_eq!(slack.tracks().len(), 1, "slack should prevent churn");
        assert_eq!(confirmed[0].id, 0);
        assert_eq!(slack.total_count(), 1);
    }

    #[test]
    fn slack_does_not_relax_interior_matching() {
        // Two interior boxes with IoU ≈ 0.25: slack must NOT make them
        // associate, because neither touches the frame boundary.
        let a = det_box(0.50, 0.5, 0.20, 0.12);
        let b = det_box(0.425, 0.5, 0.05, 0.12);
        assert!(a.bbox.iou(&b.bbox) < 0.3);
        let mut tracker = Tracker::new(TrackerConfig {
            boundary_slack: 0.25,
            ..TrackerConfig::default()
        });
        tracker.update(std::slice::from_ref(&a));
        tracker.update(&[a]);
        tracker.update(&[b]);
        assert_eq!(tracker.tracks().len(), 2);
    }

    #[test]
    fn min_box_area_blocks_sliver_spawns_but_not_matches() {
        let mut tracker = Tracker::new(TrackerConfig {
            min_box_area: 1e-3,
            boundary_slack: 0.5,
            ..TrackerConfig::default()
        });
        // A clipped sliver (area 6e-4 < 1e-3) never founds a track…
        let sliver = det_box(0.0025, 0.5, 0.005, 0.12);
        tracker.update(std::slice::from_ref(&sliver));
        assert!(tracker.tracks().is_empty());
        // …but a full-size object does, and a later sliver overlapping it
        // can still extend that track instead of being dropped.
        let full = det_box(0.03, 0.5, 0.06, 0.12);
        tracker.update(std::slice::from_ref(&full));
        tracker.update(&[full]);
        let before = tracker.tracks()[0].hits;
        let overlapping_sliver = det_box(0.01, 0.5, 0.02, 0.12);
        tracker.update(&[overlapping_sliver]);
        assert_eq!(tracker.tracks().len(), 1);
        assert_eq!(tracker.tracks()[0].hits, before + 1);
    }

    #[test]
    fn moving_object_is_followed() {
        let mut tracker = Tracker::new(TrackerConfig::default());
        // Moves 0.02 per frame; boxes overlap heavily between frames.
        for i in 0..10 {
            tracker.update(&[det(0.2 + 0.02 * i as f32, 0.5)]);
        }
        assert_eq!(tracker.total_count(), 1);
        let track = tracker.confirmed_tracks().next().unwrap();
        assert!(track.bbox.cx > 0.35);
        assert_eq!(track.hits, 10);
    }
}
