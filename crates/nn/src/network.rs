use crate::profile::{backward_metric_name, forward_metric_name, kind_slug};
use crate::{ActivationPool, Layer, NnError, Result};
use dronet_obs::{Histogram, Registry, Tracer};
use dronet_tensor::packed::Views;
use dronet_tensor::{Shape, Tensor, TensorError};

/// A sequential CNN: the Darknet network model.
///
/// Layers execute in order; the network records its nominal input
/// dimensions (channels, height, width) and validates inputs against them.
///
/// # Example
///
/// ```
/// use dronet_nn::{Activation, Conv2d, Layer, MaxPool2d, Network};
/// use dronet_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), dronet_nn::NnError> {
/// let mut net = Network::new(3, 16, 16);
/// net.push(Layer::conv(Conv2d::new(3, 4, 3, 1, 1, Activation::Leaky, true)?));
/// net.push(Layer::max_pool(MaxPool2d::new(2, 2)?));
/// let y = net.forward(&Tensor::zeros(Shape::nchw(2, 3, 16, 16)))?;
/// assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    input_c: usize,
    input_h: usize,
    input_w: usize,
    layers: Vec<Layer>,
    /// Number of training samples seen, mirrored into weight files.
    seen: u64,
    /// Telemetry sink; inert unless [`Network::set_observability`] is
    /// called with a live registry.
    obs: Registry,
    /// Per-layer forward-pass histograms (empty when unobserved, so the
    /// hot loop pays only a bounds check).
    forward_spans: Vec<Histogram>,
    /// Per-layer backward-pass histograms.
    backward_spans: Vec<Histogram>,
    forward_total: Histogram,
    backward_total: Histogram,
    /// Flight recorder; inert unless [`Network::set_tracing`] is called
    /// with a live tracer.
    tracer: Tracer,
    /// Recycled activation/scratch buffers for the inference path (empty
    /// until the first [`Network::forward`]; clones start empty).
    scratch: ActivationPool,
}

impl Network {
    /// Creates an empty network expecting `c x h x w` inputs.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Network {
            input_c: c,
            input_h: h,
            input_w: w,
            layers: Vec::new(),
            seen: 0,
            obs: Registry::noop(),
            forward_spans: Vec::new(),
            backward_spans: Vec::new(),
            forward_total: Histogram::default(),
            backward_total: Histogram::default(),
            tracer: Tracer::noop(),
            scratch: ActivationPool::default(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Layer) {
        self.layers.push(layer);
        if self.obs.is_enabled() {
            self.rebuild_spans();
        }
    }

    /// Attaches (or, with a [`Registry::noop`], detaches) telemetry.
    ///
    /// With a live registry every forward/backward pass records per-layer
    /// latency histograms named `nn.forward.L{index:02}.{kind}` /
    /// `nn.backward.L{index:02}.{kind}` plus `nn.forward.total` and
    /// `nn.backward.total`; join them with a
    /// [`NetworkSummary`](crate::summary::NetworkSummary) via
    /// [`NetworkProfile`](crate::profile::NetworkProfile) for per-layer
    /// achieved-GFLOP/s breakdowns. Handles are cached per layer so the
    /// hot path never touches the registry's lock.
    pub fn set_observability(&mut self, obs: &Registry) {
        self.obs = obs.clone();
        self.rebuild_spans();
    }

    /// The registry metrics are recorded into (inert by default).
    pub fn observability(&self) -> &Registry {
        &self.obs
    }

    /// Attaches (or, with [`Tracer::noop`], detaches) the flight recorder.
    ///
    /// With a live tracer every inference forward pass writes an
    /// `nn.forward` span wrapping one span per layer (named by the layer's
    /// kind slug, the layer index in the span's aux field), all carrying
    /// the calling thread's current `frame_id` trace context. Histograms
    /// answer *how long on average*; these spans answer *what happened
    /// inside frame N*.
    pub fn set_tracing(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The flight recorder spans are written to (inert by default).
    pub fn tracing(&self) -> &Tracer {
        &self.tracer
    }

    fn rebuild_spans(&mut self) {
        if !self.obs.is_enabled() {
            self.forward_spans.clear();
            self.backward_spans.clear();
            self.forward_total = Histogram::default();
            self.backward_total = Histogram::default();
            return;
        }
        self.forward_total = self.obs.histogram("nn.forward.total");
        self.backward_total = self.obs.histogram("nn.backward.total");
        self.forward_spans = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| self.obs.histogram(&forward_metric_name(i, l.kind())))
            .collect();
        self.backward_spans = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| self.obs.histogram(&backward_metric_name(i, l.kind())))
            .collect();
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (weight loading).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Nominal input `(channels, height, width)`.
    pub fn input_chw(&self) -> (usize, usize, usize) {
        (self.input_c, self.input_h, self.input_w)
    }

    /// Changes the nominal input resolution (the paper's input-size sweep
    /// re-uses one architecture at several resolutions).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLayerConfig`] when either dimension is zero.
    pub fn set_input_size(&mut self, h: usize, w: usize) -> Result<()> {
        if h == 0 || w == 0 {
            return Err(NnError::BadLayerConfig {
                layer: "net",
                msg: format!("input size {h}x{w} must be positive"),
            });
        }
        self.input_h = h;
        self.input_w = w;
        Ok(())
    }

    /// Training samples seen so far (persisted in weight files).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Updates the seen-samples counter.
    pub fn set_seen(&mut self, seen: u64) {
        self.seen = seen;
    }

    /// Output `(channels, height, width)` of the final layer.
    pub fn output_chw(&self) -> (usize, usize, usize) {
        let mut chw = self.input_chw();
        for layer in &self.layers {
            chw = layer.output_chw(chw.0, chw.1, chw.2);
        }
        chw
    }

    /// Output shape for a batch of `n` images.
    pub fn output_shape(&self, n: usize) -> Shape {
        let (c, h, w) = self.output_chw();
        Shape::nchw(n, c, h, w)
    }

    fn check_input(&self, x: &Views<'_>) -> Result<()> {
        let s = x.shape()?;
        let ok = s.rank() == 4
            && s.channels() == self.input_c
            && s.height() == self.input_h
            && s.width() == self.input_w;
        if ok {
            Ok(())
        } else {
            Err(NnError::BadInput {
                expected: vec![0, self.input_c, self.input_h, self.input_w],
                actual: s.dims().to_vec(),
            })
        }
    }

    /// Inference forward pass over a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `x` does not match the nominal
    /// input dimensions; propagates layer errors.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor> {
        self.forward_views(Views::Batch(x))
    }

    /// [`Network::forward`] over a batch of [`Views`]: the first layer reads
    /// each image where it lies — a tile read in place from a larger frame,
    /// say — and every later layer reads the activations as usual. The bits
    /// are those of a forward over the views' copies.
    ///
    /// # Errors
    ///
    /// Those of [`Network::forward`]; and [`NnError::Tensor`] for invalid
    /// views, or windows into a frame when the network does not begin with
    /// a convolution (only a convolution reads a window).
    pub fn forward_views(&mut self, x: Views<'_>) -> Result<Tensor> {
        self.check_input(&x)?;
        let total = self.forward_total.start();
        let trace_total = self.tracer.span("nn.forward");
        // Activations flow through the recycled scratch pool: each layer
        // draws its output from it and the previous layer's (now consumed)
        // activation is returned to it, so repeated forwards — a serving
        // loop — reuse the same mapped pages instead of re-faulting
        // mmap-sized allocations every pass.
        let mut pool = std::mem::take(&mut self.scratch);
        let mut cur: Option<Tensor> = None;
        let mut failed = None;
        // Whether the previous layer, a convolution, has already stored this
        // layer's output: a downsampling max pool is taken in the store of
        // the convolution ahead of it where that pays. Training keeps the
        // layers apart — the pool's backward pass needs its argmax.
        let mut absorbed = false;
        for i in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i + 1);
            let layer = &mut done[i];
            // An absorbed layer records its (empty) sample like any other,
            // the convolution's covers the pair.
            let span = self.forward_spans.get(i).map(Histogram::start);
            let trace_span = self.tracer.span_aux(kind_slug(layer.kind()), i as i64);
            // The first layer reads the caller's views directly — no input
            // copy.
            let input = cur.as_ref().map_or(x, Views::Batch);
            let output = if std::mem::take(&mut absorbed) {
                Ok(None)
            } else {
                let stored = match (&mut *layer, rest.first_mut()) {
                    (Layer::Conv(conv), Some(Layer::MaxPool(after))) => {
                        conv.forward_pooled_through(input, after, &mut pool)
                    }
                    _ => Ok(None),
                };
                absorbed = matches!(stored, Ok(Some(_)));
                match (stored, &mut *layer) {
                    (Ok(None), Layer::Conv(conv)) => conv.forward_views(input, &mut pool).map(Some),
                    (Ok(None), layer) => dense(input)
                        .and_then(|x| layer.forward_pooled(x, &mut pool))
                        .map(Some),
                    (stored, _) => stored,
                }
            };
            match output {
                Ok(Some(next)) => {
                    if let Some(prev) = cur.replace(next) {
                        pool.give(prev.into_vec());
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    failed = Some(at_layer(e, i));
                }
            }
            drop(trace_span);
            drop(span);
            if failed.is_some() {
                break;
            }
        }
        self.scratch = pool;
        if let Some(e) = failed {
            return Err(e);
        }
        drop(trace_total);
        total.stop();
        match cur {
            Some(y) => Ok(y),
            None => dense(x).cloned(),
        }
    }

    /// Returns a consumed forward output to the recycled scratch pool.
    ///
    /// [`Network::forward`] draws every activation — including the final
    /// output it returns — from the pool, but cannot reclaim the output
    /// itself. A serving loop that recycles each result once decoded makes
    /// the steady-state forward fully allocation-free (pooled conv path,
    /// warm pool, single-threaded GEMM).
    pub fn recycle(&mut self, output: Tensor) {
        self.scratch.give(output.into_vec());
    }

    /// Training forward pass: every layer records the caches backward needs.
    /// The batch counts towards [`Network::seen`] once the last layer has
    /// run.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        self.check_input(&Views::Batch(x))?;
        let total = self.forward_total.start();
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let span = self.forward_spans.get(i).map(Histogram::start);
            cur = layer.forward_train(&cur).map_err(|e| at_layer(e, i))?;
            drop(span);
        }
        total.stop();
        self.seen += x.shape().batch() as u64;
        Ok(cur)
    }

    /// Backward pass from the gradient at the network output; accumulates
    /// parameter gradients and returns the gradient at the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] (with the layer index) when
    /// a layer has no forward cache; propagates layer errors.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let total = self.backward_total.start();
        let mut grad = grad_out.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            let span = self.backward_spans.get(i).map(Histogram::start);
            grad = layer.backward(&grad).map_err(|e| at_layer(e, i))?;
            drop(span);
        }
        total.stop();
        Ok(grad)
    }

    /// Clears all accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Visits every (parameter slice, gradient slice) pair in the network,
    /// in a stable order. Optimizers use this to update weights.
    pub fn visit_params_mut(&mut self, mut f: impl FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            if let Layer::Conv(conv) = layer {
                conv.visit_params_mut(&mut f);
            }
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Re-initialises every convolution from `rng` (Kaiming weights, zero
    /// biases). Use for reproducible training starts.
    pub fn init_weights(&mut self, rng: &mut impl rand::Rng) {
        for layer in &mut self.layers {
            if let Layer::Conv(conv) = layer {
                conv.init_weights(rng);
            }
        }
    }
}

/// What a layer other than a convolution reads: a dense batch.
fn dense(x: Views<'_>) -> Result<&Tensor> {
    match x {
        Views::Batch(x) => Ok(x),
        Views::Windows { .. } => Err(NnError::Tensor(TensorError::InvalidArgument {
            op: "forward_views",
            msg: "only a convolution reads windows into a frame".to_string(),
        })),
    }
}

fn at_layer(e: NnError, index: usize) -> NnError {
    match e {
        NnError::MissingForwardCache { .. } => NnError::MissingForwardCache { layer_index: index },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NetworkProfile;
    use crate::summary::NetworkSummary;
    use crate::{Activation, Conv2d, MaxPool2d, RegionConfig, RegionLayer};
    use dronet_tensor::init;
    use rand::SeedableRng;

    fn tiny_net() -> Network {
        let mut net = Network::new(3, 16, 16);
        net.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(8, 12, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.push(Layer::conv(
            Conv2d::new(12, 6, 1, 1, 0, Activation::Linear, false).unwrap(),
        ));
        net.push(Layer::region(
            RegionLayer::new(RegionConfig {
                anchors: vec![(1.0, 1.5)],
                classes: 1,
            })
            .unwrap(),
        ));
        net
    }

    #[test]
    fn forward_shapes_propagate() {
        let mut net = tiny_net();
        assert_eq!(net.output_chw(), (6, 4, 4));
        let y = net
            .forward(&Tensor::zeros(Shape::nchw(2, 3, 16, 16)))
            .unwrap();
        assert_eq!(y.shape(), &net.output_shape(2));
    }

    /// End-to-end batch sanity for the serving micro-batcher: a batched
    /// forward through conv → pool → conv → region must reproduce each
    /// per-image forward bit-exactly (no cross-image stride leakage in any
    /// layer).
    #[test]
    fn batched_forward_matches_per_image_forwards_bit_exactly() {
        let mut net = tiny_net();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        net.init_weights(&mut rng);
        let batch = init::uniform(Shape::nchw(4, 3, 16, 16), -1.0, 1.0, &mut rng);
        let batched = net.forward(&batch).unwrap();
        for b in 0..4 {
            let single = net.forward(&batch.batch_item(b).unwrap()).unwrap();
            assert_eq!(
                batched.batch_item(b).unwrap().as_slice(),
                single.as_slice(),
                "image {b} diverges between batched and single forward"
            );
        }
    }

    #[test]
    fn rejects_wrong_input_size() {
        let mut net = tiny_net();
        let bad = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        assert!(matches!(net.forward(&bad), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn input_resize_changes_output_grid() {
        let mut net = tiny_net();
        net.set_input_size(32, 32).unwrap();
        assert_eq!(net.output_chw(), (6, 8, 8));
        assert!(net.set_input_size(0, 32).is_err());
        let y = net
            .forward(&Tensor::zeros(Shape::nchw(1, 3, 32, 32)))
            .unwrap();
        assert_eq!(y.shape().dims(), &[1, 6, 8, 8]);
    }

    #[test]
    fn train_forward_then_backward_produces_input_grad() {
        let mut net = tiny_net();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        net.init_weights(&mut rng);
        let x = init::uniform(Shape::nchw(2, 3, 16, 16), 0.0, 1.0, &mut rng);
        let y = net.forward_train(&x).unwrap();
        let g = Tensor::ones(*y.shape());
        let dx = net.backward(&g).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(net.seen(), 2);
    }

    /// A forward that fails part-way trained on nothing: `seen`, which is
    /// written into every weight file, does not count its batch.
    #[test]
    fn a_failed_training_forward_is_not_seen() {
        let mut net = Network::new(3, 8, 8);
        net.push(Layer::conv(
            Conv2d::new(3, 4, 3, 1, 1, Activation::Leaky, false).unwrap(),
        ));
        net.push(Layer::conv(
            Conv2d::new(8, 2, 3, 1, 1, Activation::Leaky, false).unwrap(),
        ));
        let x = Tensor::ones(Shape::nchw(2, 3, 8, 8));
        assert!(matches!(
            net.forward_train(&x),
            Err(NnError::BadInput { .. })
        ));
        assert_eq!(net.seen(), 0);
    }

    #[test]
    fn backward_without_forward_names_the_layer() {
        let mut net = tiny_net();
        let g = Tensor::zeros(net.output_shape(1));
        match net.backward(&g) {
            Err(NnError::MissingForwardCache { layer_index }) => assert_eq!(layer_index, 5),
            other => panic!("expected missing-cache error, got {other:?}"),
        }
    }

    #[test]
    fn visit_params_matches_param_count() {
        let mut net = tiny_net();
        let mut seen = 0usize;
        net.visit_params_mut(|p, g| {
            assert_eq!(p.len(), g.len());
            seen += p.len();
        });
        assert_eq!(seen, net.param_count());
        assert!(net.param_count() > 0);
    }

    #[test]
    fn zero_grads_after_backward() {
        let mut net = tiny_net();
        let x = Tensor::ones(Shape::nchw(1, 3, 16, 16));
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(*y.shape())).unwrap();
        net.zero_grads();
        net.visit_params_mut(|_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn observed_network_records_per_layer_timings() {
        let mut net = tiny_net();
        let obs = Registry::new();
        net.set_observability(&obs);
        assert!(net.observability().is_enabled());
        let x = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        net.forward(&x).unwrap();
        let y = net.forward_train(&x).unwrap();
        net.backward(&Tensor::ones(*y.shape())).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.histogram("nn.forward.total").unwrap().count, 2);
        assert_eq!(snap.histogram("nn.backward.total").unwrap().count, 1);
        assert_eq!(snap.histogram("nn.forward.L00.conv").unwrap().count, 2);
        assert_eq!(snap.histogram("nn.backward.L05.region").unwrap().count, 1);
        // One histogram per layer per direction, plus the two totals.
        assert_eq!(snap.histograms.len(), 2 * net.len() + 2);
        // Detaching stops recording without touching accumulated data.
        net.set_observability(&Registry::noop());
        net.forward(&x).unwrap();
        assert_eq!(
            obs.snapshot().histogram("nn.forward.total").unwrap().count,
            2
        );
    }

    #[test]
    fn layers_pushed_after_observability_are_timed() {
        let obs = Registry::new();
        let mut net = Network::new(3, 8, 8);
        net.set_observability(&obs);
        net.push(Layer::conv(
            Conv2d::new(3, 4, 3, 1, 1, Activation::Leaky, false).unwrap(),
        ));
        net.forward(&Tensor::zeros(Shape::nchw(1, 3, 8, 8)))
            .unwrap();
        assert_eq!(
            obs.snapshot()
                .histogram("nn.forward.L00.conv")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn traced_forward_emits_per_layer_spans() {
        let mut net = tiny_net();
        let tracer = Tracer::new();
        net.set_tracing(&tracer);
        assert!(net.tracing().is_enabled());
        tracer.set_frame(11);
        net.forward(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .unwrap();
        let snap = tracer.snapshot();
        // One nn.forward span plus one span per layer, each begin+end.
        assert_eq!(snap.events.len(), 2 * (net.len() + 1));
        assert!(snap.events.iter().all(|e| e.frame_id == 11));
        let layer_auxes: Vec<i64> = snap
            .events
            .iter()
            .filter(|e| e.kind == dronet_obs::TraceKind::End && e.name != "nn.forward")
            .map(|e| e.aux)
            .collect();
        assert_eq!(layer_auxes, (0..net.len() as i64).collect::<Vec<_>>());
        // Detaching goes back to the single-branch noop path.
        net.set_tracing(&Tracer::noop());
        net.forward(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .unwrap();
        assert_eq!(tracer.snapshot().events.len(), snap.events.len());
    }

    /// conv (large enough for its pool to be taken in the store) → pool →
    /// conv (too small) → pool → 1x1 conv: layer by layer through
    /// `Layer::forward_pooled` and through `Network::forward`.
    fn front_end(first_pool: MaxPool2d) -> (Network, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut net = Network::new(3, 176, 176);
        for layer in [
            Layer::conv(Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap()),
            Layer::max_pool(first_pool),
            Layer::conv(Conv2d::new(8, 12, 3, 1, 1, Activation::Leaky, true).unwrap()),
            Layer::max_pool(MaxPool2d::new(2, 2).unwrap()),
            Layer::conv(Conv2d::new(12, 6, 1, 1, 0, Activation::Linear, false).unwrap()),
        ] {
            net.push(layer);
        }
        net.init_weights(&mut rng);
        let x = init::uniform(Shape::nchw(2, 3, 176, 176), -1.0, 1.0, &mut rng);
        (net, x)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn layer_by_layer(net: &Network, x: &Tensor) -> Tensor {
        let mut layers = net.layers().to_vec();
        layers.iter_mut().fold(x.clone(), |x, layer| {
            layer
                .forward_pooled(&x, &mut ActivationPool::default())
                .unwrap()
        })
    }

    /// The first convolution's activation, 2 x 8 x 176 x 176 floats.
    const FULL_RESOLUTION: usize = 2 * 8 * 176 * 176;

    #[test]
    fn a_pool_taken_in_the_store_leaves_bits_and_telemetry_alone() {
        let (mut net, x) = front_end(MaxPool2d::new(2, 2).unwrap());
        let (obs, tracer) = (Registry::new(), Tracer::new());
        net.set_observability(&obs);
        net.set_tracing(&tracer);
        let y = net.forward(&x).unwrap();
        assert_eq!(bits(&y), bits(&layer_by_layer(&net, &x)));
        // The pool was taken in the store: the first convolution's own
        // output was never anywhere, so no buffer that could hold it is.
        net.recycle(y);
        assert!(
            net.scratch.held() < FULL_RESOLUTION,
            "{}",
            net.scratch.held()
        );
        // Every layer, the absorbed pool included, has its one sample and
        // its one span, in order.
        let snap = obs.snapshot();
        for (i, layer) in net.layers().iter().enumerate() {
            let name = forward_metric_name(i, layer.kind());
            assert_eq!(snap.histogram(&name).unwrap().count, 1, "{name}");
        }
        let ends: Vec<(&str, i64)> = tracer
            .snapshot()
            .events
            .iter()
            .filter(|e| e.kind == dronet_obs::TraceKind::End)
            .map(|e| (e.name, e.aux))
            .collect();
        let want = [
            ("conv", 0),
            ("maxpool", 1),
            ("conv", 2),
            ("maxpool", 3),
            ("conv", 4),
        ];
        assert_eq!(ends[..5], want);
        assert_eq!(ends.len(), 6, "{ends:?}");
    }

    /// The profile of the same forward: the absorbed pool's sample times
    /// no work of its own, so its row has no throughput, while the pool
    /// that runs as its own layer is timed like any other.
    #[test]
    fn the_profile_gives_an_absorbed_pool_no_throughput() {
        let (mut net, x) = front_end(MaxPool2d::new(2, 2).unwrap());
        let obs = Registry::new();
        net.set_observability(&obs);
        net.forward(&x).unwrap();
        let summary = NetworkSummary::of("front end", &net);
        let absorbed: Vec<bool> = summary.rows.iter().map(|r| r.absorbed).collect();
        assert_eq!(absorbed, [false, true, false, false, false]);
        let profile = NetworkProfile::new(&summary, &obs.snapshot());
        assert_eq!(profile.rows[1].gflops_per_sec, None);
        let own = profile.rows[3].gflops_per_sec;
        assert!(own.is_some_and(|g| g > 0.0), "{own:?}");
    }

    #[test]
    fn a_pool_that_is_not_the_downsampling_one_stays_a_layer() {
        // Tiny-YOLO's "same" pool keeps the grid: nothing to take in a store.
        let (mut net, x) = front_end(MaxPool2d::new(2, 1).unwrap());
        let y = net.forward(&x).unwrap();
        assert_eq!(bits(&y), bits(&layer_by_layer(&net, &x)));
        net.recycle(y);
        assert!(net.scratch.held() >= FULL_RESOLUTION);
    }

    /// A training pass in between changes nothing: it keeps the layers
    /// apart, and the fused inference pass after it drops both caches.
    #[test]
    fn an_absorbed_pool_forgets_its_training_pass_like_any_other() {
        let (mut net, x) = front_end(MaxPool2d::new(2, 2).unwrap());
        let trained = net.forward_train(&x).unwrap();
        let inferred = net.forward(&x).unwrap();
        assert_eq!(inferred.shape(), trained.shape());
        match net.backward(&Tensor::ones(*trained.shape())) {
            Err(NnError::MissingForwardCache { layer_index }) => assert_eq!(layer_index, 4),
            other => panic!("expected missing-cache error, got {other:?}"),
        }
        // The caches of layers 0 and 1 went with the fused pass.
        let mut layers = net.layers().to_vec();
        let grad = Tensor::ones(Shape::nchw(2, 8, 88, 88));
        assert!(layers[1].backward(&grad).is_err());
    }

    #[test]
    fn empty_network_is_identity() {
        let mut net = Network::new(2, 4, 4);
        assert!(net.is_empty());
        let x = Tensor::ones(Shape::nchw(1, 2, 4, 4));
        let y = net.forward(&x).unwrap();
        assert_eq!(y, x);
    }
}
