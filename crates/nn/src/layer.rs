use crate::{ActivationPool, Conv2d, MaxPool2d, RegionLayer, Result};
use dronet_tensor::Tensor;

/// Discriminant of a [`Layer`], used for summaries and serialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution (`[convolutional]`).
    Convolutional,
    /// Max pooling (`[maxpool]`).
    MaxPool,
    /// Detection head (`[region]`).
    Region,
}

impl LayerKind {
    /// The Darknet cfg section name for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            LayerKind::Convolutional => "convolutional",
            LayerKind::MaxPool => "maxpool",
            LayerKind::Region => "region",
        }
    }
}

impl std::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single network layer.
///
/// The engine uses closed enum dispatch rather than trait objects: the
/// paper's models only ever use these three layer types, and the enum keeps
/// cfg/weights serialisation and cost accounting exhaustive (adding a layer
/// type forces every consumer to handle it).
// A network holds a handful of layers, so the Conv-vs-MaxPool size gap
// costs a few hundred bytes total; boxing would indirect every forward call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Layer {
    /// Convolution layer.
    Conv(Conv2d),
    /// Max-pooling layer.
    MaxPool(MaxPool2d),
    /// Region detection head.
    Region(RegionLayer),
}

impl Layer {
    /// Wraps a convolution.
    pub fn conv(conv: Conv2d) -> Self {
        Layer::Conv(conv)
    }

    /// Wraps a max-pool.
    pub fn max_pool(pool: MaxPool2d) -> Self {
        Layer::MaxPool(pool)
    }

    /// Wraps a region head.
    pub fn region(region: RegionLayer) -> Self {
        Layer::Region(region)
    }

    /// This layer's kind.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::Conv(_) => LayerKind::Convolutional,
            Layer::MaxPool(_) => LayerKind::MaxPool,
            Layer::Region(_) => LayerKind::Region,
        }
    }

    /// The wrapped convolution, when this is one.
    pub fn as_conv(&self) -> Option<&Conv2d> {
        match self {
            Layer::Conv(c) => Some(c),
            _ => None,
        }
    }

    /// The wrapped region head, when this is one.
    pub fn as_region(&self) -> Option<&RegionLayer> {
        match self {
            Layer::Region(r) => Some(r),
            _ => None,
        }
    }

    /// Inference forward pass drawing scratch/output memory from a
    /// recycled [`ActivationPool`]. Every layer kind participates, so a
    /// steady-state forward with a warm pool performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's errors.
    pub fn forward_pooled(&mut self, x: &Tensor, pool: &mut ActivationPool) -> Result<Tensor> {
        match self {
            Layer::Conv(c) => c.forward_pooled(x, pool),
            Layer::MaxPool(p) => p.forward_pooled(x, pool),
            Layer::Region(r) => r.forward_pooled(x, pool),
        }
    }

    /// Training forward pass (records caches for backward).
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's errors.
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv(c) => c.forward_train(x),
            Layer::MaxPool(p) => p.forward_train(x),
            Layer::Region(r) => r.forward_train(x),
        }
    }

    /// Backward pass; consumes the forward cache.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped layer's errors.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv(c) => c.backward(grad_out),
            Layer::MaxPool(p) => p.backward(grad_out),
            Layer::Region(r) => r.backward(grad_out),
        }
    }

    /// Clears accumulated parameter gradients (no-op for parameterless
    /// layers).
    pub fn zero_grads(&mut self) {
        if let Layer::Conv(c) = self {
            c.zero_grads();
        }
    }

    /// Output `(channels, height, width)` given the input dimensions.
    pub fn output_chw(&self, c: usize, h: usize, w: usize) -> (usize, usize, usize) {
        match self {
            Layer::Conv(conv) => {
                let (oh, ow) = conv.output_hw(h, w);
                (conv.out_channels(), oh, ow)
            }
            Layer::MaxPool(p) => {
                let (oh, ow) = p.output_hw(h, w);
                (c, oh, ow)
            }
            Layer::Region(_) => (c, h, w),
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv(c) => c.param_count(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, RegionConfig};

    #[test]
    fn kind_and_accessors() {
        let conv = Layer::conv(Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap());
        assert_eq!(conv.kind(), LayerKind::Convolutional);
        assert!(conv.as_conv().is_some());
        assert!(conv.as_region().is_none());

        let pool = Layer::max_pool(MaxPool2d::new(2, 2).unwrap());
        assert_eq!(pool.kind(), LayerKind::MaxPool);
        assert_eq!(pool.param_count(), 0);

        let region = Layer::region(RegionLayer::new(RegionConfig::vehicle()).unwrap());
        assert_eq!(region.kind(), LayerKind::Region);
        assert_eq!(region.kind().to_string(), "region");
    }

    #[test]
    fn output_chw_propagation() {
        let conv = Layer::conv(Conv2d::new(3, 16, 3, 1, 1, Activation::Leaky, true).unwrap());
        assert_eq!(conv.output_chw(3, 416, 416), (16, 416, 416));
        let pool = Layer::max_pool(MaxPool2d::new(2, 2).unwrap());
        assert_eq!(pool.output_chw(16, 416, 416), (16, 208, 208));
        let region = Layer::region(RegionLayer::new(RegionConfig::vehicle()).unwrap());
        assert_eq!(region.output_chw(30, 13, 13), (30, 13, 13));
    }
}
