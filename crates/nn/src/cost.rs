//! Per-layer compute/memory cost accounting; whole-network totals are
//! [`crate::summary::NetworkSummary`]'s, over the same per-layer costs.
//!
//! The platform performance models in `dronet_eval::platform` project
//! frame rates from these counts, so the definitions follow the usual
//! embedded-vision conventions: one multiply-accumulate = 2 FLOPs, and
//! memory traffic is the sum of the input activations, output activations
//! and weights a layer must move (a reasonable proxy for a cache-poor
//! embedded core).

use crate::Layer;

/// Compute and memory cost of a single layer at a specific input size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Floating-point operations for one forward pass (2 per MAC).
    pub flops: f64,
    /// Trainable parameter count.
    pub params: usize,
    /// Bytes of input activations read.
    pub input_bytes: f64,
    /// Bytes of output activations written.
    pub output_bytes: f64,
    /// Bytes of weights read.
    pub weight_bytes: f64,
}

impl LayerCost {
    /// Total bytes moved by the layer.
    pub fn total_bytes(&self) -> f64 {
        self.input_bytes + self.output_bytes + self.weight_bytes
    }
}

const F32_BYTES: f64 = 4.0;

/// Computes the cost of `layer` given its input dimensions.
pub fn layer_cost(layer: &Layer, c: usize, h: usize, w: usize) -> LayerCost {
    let (oc, oh, ow) = layer.output_chw(c, h, w);
    let in_elems = (c * h * w) as f64;
    let out_elems = (oc * oh * ow) as f64;
    match layer {
        Layer::Conv(conv) => {
            let k = conv.kernel() as f64;
            let macs = k * k * c as f64 * out_elems;
            LayerCost {
                // 2 FLOPs per MAC plus bias/BN/activation passes over the
                // output (small but real on embedded cores).
                flops: 2.0 * macs + 3.0 * out_elems,
                params: conv.param_count(),
                input_bytes: in_elems * F32_BYTES,
                output_bytes: out_elems * F32_BYTES,
                weight_bytes: conv.param_count() as f64 * F32_BYTES,
            }
        }
        Layer::MaxPool(pool) => {
            let k = (pool.size() * pool.size()) as f64;
            LayerCost {
                // One comparison per window element.
                flops: k * out_elems,
                params: 0,
                input_bytes: in_elems * F32_BYTES,
                output_bytes: out_elems * F32_BYTES,
                weight_bytes: 0.0,
            }
        }
        Layer::Region(_) => LayerCost {
            // Two transcendental-ish ops per entry, counted generously.
            flops: 2.0 * out_elems,
            params: 0,
            input_bytes: in_elems * F32_BYTES,
            output_bytes: out_elems * F32_BYTES,
            weight_bytes: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, MaxPool2d, RegionConfig, RegionLayer};

    #[test]
    fn conv_flops_formula() {
        // 3x3 conv, 3 -> 16 channels, 8x8 "same" output.
        let layer = Layer::conv(Conv2d::new(3, 16, 3, 1, 1, Activation::Leaky, false).unwrap());
        let cost = layer_cost(&layer, 3, 8, 8);
        let out_elems = 16.0 * 64.0;
        assert_eq!(cost.flops, 2.0 * 9.0 * 3.0 * out_elems + 3.0 * out_elems);
        assert_eq!(cost.params, 3 * 16 * 9 + 16);
    }

    #[test]
    fn pool_and_region_costs_are_bandwidth_dominated() {
        let pool = Layer::max_pool(MaxPool2d::new(2, 2).unwrap());
        let cost = layer_cost(&pool, 16, 8, 8);
        assert_eq!(cost.params, 0);
        assert_eq!(cost.weight_bytes, 0.0);

        let region = Layer::region(RegionLayer::new(RegionConfig::vehicle()).unwrap());
        let cost = layer_cost(&region, 30, 13, 13);
        assert_eq!(cost.params, 0);
        assert!(cost.flops > 0.0);
    }

    #[test]
    fn doubling_input_quadruples_conv_flops() {
        let layer = Layer::conv(Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, false).unwrap());
        let flops = |hw: usize| layer_cost(&layer, 3, hw, hw).flops;
        assert!((flops(128) / flops(64) - 4.0).abs() < 0.01);
    }
}
