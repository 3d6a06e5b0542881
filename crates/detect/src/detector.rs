use crate::altitude::AltitudeFilter;
use crate::decode::{decode, Detection};
use crate::nms::non_max_suppression;
use crate::{DetectError, Result};
use dronet_nn::{Network, NnError, RegionConfig};
use dronet_obs::{Histogram, Registry, Tracer};
use dronet_tensor::packed::Views;
use dronet_tensor::Tensor;

/// Builder for [`Detector`] (thresholds, optional altitude gating).
///
/// # Example
///
/// ```
/// use dronet_detect::DetectorBuilder;
/// # fn main() -> Result<(), dronet_detect::DetectError> {
/// let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, 96)?;
/// let detector = DetectorBuilder::new(net)
///     .confidence_threshold(0.6)
///     .nms_threshold(0.4)
///     .build()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DetectorBuilder {
    network: Network,
    confidence_threshold: f32,
    nms_threshold: f32,
    altitude_filter: Option<AltitudeFilter>,
    obs: Registry,
    tracer: Tracer,
}

impl DetectorBuilder {
    /// Starts a builder around a trained network. Darknet-style defaults:
    /// confidence 0.5 (the community default for region detectors), NMS
    /// IoU 0.45.
    pub fn new(network: Network) -> Self {
        DetectorBuilder {
            network,
            confidence_threshold: 0.5,
            nms_threshold: 0.45,
            altitude_filter: None,
            obs: Registry::noop(),
            tracer: Tracer::noop(),
        }
    }

    /// Attaches telemetry: every [`Detector::detect`] records per-stage
    /// latency histograms (`detect.forward`, `detect.decode`, `detect.nms`)
    /// into `obs`, and the wrapped network its per-layer timings.
    pub fn observability(mut self, obs: &Registry) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Attaches the flight recorder: every [`Detector::detect`] writes
    /// `detect.forward` / `detect.decode` / `detect.nms` spans (and the
    /// wrapped network its per-layer spans) carrying the calling thread's
    /// current `frame_id` trace context.
    pub fn tracing(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Sets the minimum `objectness * class_prob` to keep a candidate.
    pub fn confidence_threshold(mut self, threshold: f32) -> Self {
        self.confidence_threshold = threshold;
        self
    }

    /// Sets the IoU above which overlapping detections are suppressed.
    pub fn nms_threshold(mut self, threshold: f32) -> Self {
        self.nms_threshold = threshold;
        self
    }

    /// Enables altitude-based size gating (the paper's §III-D
    /// application-level optimisation).
    pub fn altitude_filter(mut self, filter: AltitudeFilter) -> Self {
        self.altitude_filter = Some(filter);
        self
    }

    /// Builds the detector.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::MissingRegionHead`] when the network does not
    /// end in a region layer, and [`DetectError::BadConfig`] for thresholds
    /// outside `[0, 1]`.
    pub fn build(self) -> Result<Detector> {
        let region = self
            .network
            .layers()
            .last()
            .and_then(|l| l.as_region())
            .map(|r| r.config().clone())
            .ok_or(DetectError::MissingRegionHead)?;
        for (name, v) in [
            ("confidence threshold", self.confidence_threshold),
            ("nms threshold", self.nms_threshold),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(DetectError::BadConfig {
                    param: "threshold",
                    msg: format!("{name} {v} outside [0, 1]"),
                });
            }
        }
        let mut network = self.network;
        if self.obs.is_enabled() {
            network.set_observability(&self.obs);
        }
        if self.tracer.is_enabled() {
            network.set_tracing(&self.tracer);
        }
        Ok(Detector {
            network,
            region,
            confidence_threshold: self.confidence_threshold,
            nms_threshold: self.nms_threshold,
            altitude_filter: self.altitude_filter,
            // Stage handles are cached once here so the per-frame path
            // never touches the registry's lock (inert when unobserved).
            forward_hist: self.obs.histogram("detect.forward"),
            decode_hist: self.obs.histogram("detect.decode"),
            nms_hist: self.obs.histogram("detect.nms"),
            tracer: self.tracer,
        })
    }
}

/// Object-safe view of a detection stage: what the supervised pipeline
/// needs from whatever processes a frame.
///
/// [`Detector`] is the real implementation;
/// [`crate::fault::FaultyDetector`] wraps any stage with an injected fault
/// schedule, and tests substitute hand-written stages.
pub trait DetectStage {
    /// Runs detection on a `[1, c, h, w]` frame, at the frame's size: with
    /// a degradation controller the supervisor conforms each frame to the
    /// current ladder rung, and the stage runs at that rung.
    ///
    /// # Errors
    ///
    /// Propagates network and decode errors; see [`Detector::detect`].
    fn detect_frame(&mut self, frame: &Tensor) -> Result<Vec<Detection>>;

    /// The stage's own input `(c, h, w)`. Without a degradation controller
    /// frames are conformed to it before dispatch; with one, only its
    /// channel count is kept and the rung sets the size.
    fn input_chw(&self) -> (usize, usize, usize);
}

impl DetectStage for Detector {
    fn detect_frame(&mut self, frame: &Tensor) -> Result<Vec<Detection>> {
        self.detect(frame)
    }

    fn input_chw(&self) -> (usize, usize, usize) {
        Detector::input_chw(self)
    }
}

impl DetectStage for Box<dyn DetectStage> {
    fn detect_frame(&mut self, frame: &Tensor) -> Result<Vec<Detection>> {
        (**self).detect_frame(frame)
    }

    fn input_chw(&self) -> (usize, usize, usize) {
        (**self).input_chw()
    }
}

/// The end-to-end vehicle detector: network forward, decode, NMS, optional
/// altitude gating.
#[derive(Debug)]
pub struct Detector {
    network: Network,
    region: RegionConfig,
    confidence_threshold: f32,
    nms_threshold: f32,
    altitude_filter: Option<AltitudeFilter>,
    forward_hist: Histogram,
    decode_hist: Histogram,
    nms_hist: Histogram,
    tracer: Tracer,
}

impl Detector {
    /// The wrapped network's input `(c, h, w)`: the size it was built at,
    /// until a frame of another size sets its own.
    pub fn input_chw(&self) -> (usize, usize, usize) {
        self.network.input_chw()
    }

    /// The region-head configuration.
    pub fn region(&self) -> &RegionConfig {
        &self.region
    }

    /// The confidence threshold in use.
    pub fn confidence_threshold(&self) -> f32 {
        self.confidence_threshold
    }

    /// The NMS IoU threshold in use.
    pub fn nms_threshold(&self) -> f32 {
        self.nms_threshold
    }

    /// Mutable access to the wrapped network (weight loading).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Immutable access to the wrapped network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Attaches (or replaces) telemetry after construction: stage
    /// histograms re-bind to `obs` and the wrapped network follows. The
    /// serving layer uses this to pull factory-built detectors into its
    /// own registry.
    pub fn set_observability(&mut self, obs: &Registry) {
        self.forward_hist = obs.histogram("detect.forward");
        self.decode_hist = obs.histogram("detect.decode");
        self.nms_hist = obs.histogram("detect.nms");
        self.network.set_observability(obs);
    }

    /// Attaches (or replaces) the flight recorder after construction; the
    /// wrapped network's per-layer spans follow along.
    pub fn set_tracing(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.network.set_tracing(tracer);
    }

    /// Runs detection on a `[1, c, h, w]` image tensor, at its `h × w`.
    ///
    /// Detections are returned in descending score order, after NMS and
    /// (when configured) altitude gating.
    ///
    /// # Errors
    ///
    /// Propagates network and decode errors. Returns
    /// [`DetectError::BadConfig`] when `image` carries more than one batch
    /// item — decoding would silently drop every image past the first, so a
    /// multi-frame tensor must go through [`Detector::detect_batch`].
    pub fn detect(&mut self, image: &Tensor) -> Result<Vec<Detection>> {
        let n = image.shape().batch();
        if n != 1 {
            return Err(DetectError::BadConfig {
                param: "batch",
                msg: format!(
                    "detect() takes a single [1, c, h, w] frame, got batch {n}; use detect_batch()"
                ),
            });
        }
        let mut all = self.detect_batch_frames(image, None)?;
        Ok(all.pop().expect("one frame in, one detection list out"))
    }

    /// Runs detection on a whole batch, returning per-image detections.
    ///
    /// # Errors
    ///
    /// Propagates network and decode errors.
    pub fn detect_batch(&mut self, images: &Tensor) -> Result<Vec<Vec<Detection>>> {
        self.detect_batch_frames(images, None)
    }

    /// Like [`Detector::detect_batch`], but tags each image's trace spans
    /// with its own frame id so a coalesced server batch de-multiplexes
    /// cleanly in the Chrome trace: one `detect.forward` span carrying the
    /// batch size, then per-image `detect.decode` / `detect.nms` spans under
    /// each request's frame id.
    ///
    /// `images` is a dense batch (`&Tensor`) or any other [`Views`] — tiles
    /// read in place from a large frame, say, with no copy
    /// ([`Network::forward_views`]).
    ///
    /// This is the one path under [`Detector::detect`] and
    /// [`Detector::detect_batch`]. A batch whose `h × w` differs from the
    /// network's input size first sets the network to it
    /// ([`Network::set_input_size`]): the network is fully convolutional,
    /// so one detector serves every rung of a resolution ladder, with the
    /// outputs of a fresh build at that size.
    ///
    /// # Errors
    ///
    /// Propagates network and decode errors (a channel count other than
    /// the network's is [`NnError::BadInput`]); returns
    /// [`DetectError::BadConfig`] when `frames` is present but its length
    /// differs from the batch size.
    pub fn detect_batch_frames<'a>(
        &mut self,
        images: impl Into<Views<'a>>,
        frames: Option<&[u64]>,
    ) -> Result<Vec<Vec<Detection>>> {
        let images = images.into();
        let shape = images.shape().map_err(NnError::from)?;
        let n = shape.batch();
        // The network is fully convolutional: it runs at the size it is
        // given. Only the channel count stays fixed (`Network::forward`
        // checks it).
        let (_, h, w) = self.network.input_chw();
        if shape.rank() == 4 && (shape.height(), shape.width()) != (h, w) {
            self.network.set_input_size(shape.height(), shape.width())?;
        }
        if let Some(ids) = frames {
            if ids.len() != n {
                return Err(DetectError::BadConfig {
                    param: "frames",
                    msg: format!("{} frame ids for a batch of {n}", ids.len()),
                });
            }
        }
        let span = self.forward_hist.start();
        let trace = self.tracer.span_aux("detect.forward", n as i64);
        let output = self.network.forward_views(images)?;
        drop(trace);
        span.stop();
        let mut all = Vec::with_capacity(n);
        for b in 0..n {
            let frame_id = frames.map_or_else(|| self.tracer.current_frame(), |ids| ids[b]);
            let span = self.decode_hist.start();
            let trace = self.tracer.frame_span("detect.decode", frame_id);
            let candidates = decode(&output, &self.region, b, self.confidence_threshold)?;
            drop(trace);
            span.stop();
            let span = self.nms_hist.start();
            let trace = self.tracer.frame_span("detect.nms", frame_id);
            let mut kept = non_max_suppression(candidates, self.nms_threshold);
            if let Some(filter) = &self.altitude_filter {
                kept.retain(|d| filter.is_feasible(&d.bbox));
            }
            drop(trace);
            span.stop();
            all.push(kept);
        }
        // Decoded: the buffer goes back into the network's pool, or every
        // call would take one out of circulation and allocate another.
        self.network.recycle(output);
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::altitude::{AltitudeFilter, CameraModel};
    use dronet_nn::{Activation, Conv2d, Layer, MaxPool2d, RegionLayer};
    use dronet_tensor::Shape;

    fn region_cfg() -> RegionConfig {
        RegionConfig {
            anchors: vec![(1.0, 1.0)],
            classes: 1,
        }
    }

    fn tiny_detector_net() -> Network {
        let mut net = Network::new(3, 32, 32);
        net.push(Layer::conv(
            Conv2d::new(3, 6, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(6, 6, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        net.push(Layer::region(RegionLayer::new(region_cfg()).unwrap()));
        net
    }

    #[test]
    fn builder_validates() {
        let no_region = Network::new(3, 8, 8);
        assert!(matches!(
            DetectorBuilder::new(no_region).build(),
            Err(DetectError::MissingRegionHead)
        ));
        assert!(DetectorBuilder::new(tiny_detector_net())
            .confidence_threshold(1.5)
            .build()
            .is_err());
        assert!(DetectorBuilder::new(tiny_detector_net())
            .nms_threshold(-0.1)
            .build()
            .is_err());
    }

    #[test]
    fn detect_runs_and_times() {
        let mut det = DetectorBuilder::new(tiny_detector_net()).build().unwrap();
        assert_eq!(det.input_chw(), (3, 32, 32));
        let x = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
        let _ = det.detect(&x).unwrap();
        let _ = det.detect(&x).unwrap();
    }

    #[test]
    fn observed_detector_records_stage_timings() {
        let obs = Registry::new();
        let mut det = DetectorBuilder::new(tiny_detector_net())
            .observability(&obs)
            .build()
            .unwrap();
        let x = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
        det.detect(&x).unwrap();
        det.detect(&x).unwrap();
        let snap = obs.snapshot();
        for stage in ["detect.forward", "detect.decode", "detect.nms"] {
            assert_eq!(snap.histogram(stage).unwrap().count, 2, "stage {stage}");
        }
        // The wrapped network is observed too: one histogram per layer.
        assert_eq!(snap.histogram("nn.forward.total").unwrap().count, 2);
        assert_eq!(snap.histogram("nn.forward.L00.conv").unwrap().count, 2);
        // Batch mode records decode/NMS once per image.
        det.detect_batch(&Tensor::zeros(Shape::nchw(3, 3, 32, 32)))
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.histogram("detect.forward").unwrap().count, 3);
        assert_eq!(snap.histogram("detect.decode").unwrap().count, 5);
    }

    #[test]
    fn traced_detector_emits_stage_spans() {
        let tracer = Tracer::new();
        let mut det = DetectorBuilder::new(tiny_detector_net())
            .tracing(&tracer)
            .build()
            .unwrap();
        tracer.set_frame(5);
        det.detect(&Tensor::zeros(Shape::nchw(1, 3, 32, 32)))
            .unwrap();
        let snap = tracer.snapshot();
        let ended: Vec<&str> = snap
            .events
            .iter()
            .filter(|e| e.kind == dronet_obs::TraceKind::End)
            .map(|e| e.name)
            .collect();
        for stage in ["detect.forward", "detect.decode", "detect.nms"] {
            assert!(ended.contains(&stage), "missing span {stage}");
        }
        // The wrapped network traces its layers inside detect.forward.
        assert!(ended.contains(&"nn.forward"));
        assert!(ended.contains(&"conv"));
        assert!(snap.events.iter().all(|e| e.frame_id == 5));
    }

    #[test]
    fn detect_batch_splits_per_image() {
        let mut det = DetectorBuilder::new(tiny_detector_net()).build().unwrap();
        let x = Tensor::zeros(Shape::nchw(3, 3, 32, 32));
        let all = det.detect_batch(&x).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn altitude_filter_is_applied() {
        // Untrained nets emit arbitrary detections; instead verify wiring
        // by building the same net with an impossible filter and checking
        // the output shrinks to infeasible-free.
        let x = Tensor::zeros(Shape::nchw(1, 3, 32, 32));
        let mut det = DetectorBuilder::new(tiny_detector_net())
            .confidence_threshold(0.0)
            .build()
            .unwrap();
        let unfiltered = det.detect(&x).unwrap();
        // A filter that rejects everything (expected size range far away).
        let camera = CameraModel::new(60f32.to_radians(), 32);
        let filter = AltitudeFilter::new(camera, 1_000_000.0, (4.0, 5.0), 0.5).unwrap();
        let mut det = DetectorBuilder::new(tiny_detector_net())
            .confidence_threshold(0.0)
            .altitude_filter(filter)
            .build()
            .unwrap();
        let filtered = det.detect(&x).unwrap();
        assert!(!unfiltered.is_empty(), "a zero threshold keeps candidates");
        assert!(filtered.is_empty(), "million-metre altitude keeps nothing");
    }
}
