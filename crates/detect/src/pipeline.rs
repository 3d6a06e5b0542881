//! Per-frame results of the on-board loop of the paper's Fig. 5 deployment
//! ("we use the on-board camera to retrieve real-time video feed and pass
//! it frame by frame to the processing board where the vehicles are
//! detected"). The loop itself is [`crate::Supervisor::run_sync`], which
//! processes every frame inline; the frames a camera at a nominal rate
//! would have lost meanwhile are estimated, not dropped.

use crate::Detection;
use std::time::Duration;

/// Result of processing one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Index of the frame in arrival order.
    pub frame_index: usize,
    /// The frame's trace context id: every flight-recorder event written
    /// while this frame was processed carries it, so a `trace.json` can be
    /// filtered to this row's causal history. Equal to `frame_index` as a
    /// `u64` (arrival order is the id space).
    pub frame_id: u64,
    /// Detections surviving NMS (and altitude gating when enabled).
    pub detections: Vec<Detection>,
    /// Wall-clock processing latency.
    pub latency: Duration,
}

/// Frames a camera producing at `camera_fps` emits, and loses, while one
/// frame takes `latency` to process; zero for a camera that never produces
/// (non-positive or non-finite rate).
pub(crate) fn estimated_drops(latency: Duration, camera_fps: f64) -> usize {
    if !(camera_fps.is_finite() && camera_fps > 0.0) {
        return 0;
    }
    ((latency.as_secs_f64() * camera_fps).ceil() as usize).saturating_sub(1)
}
