use crate::platform::Platform;
use dronet_metrics::Fps;
use dronet_nn::cost::LayerCost;
use dronet_nn::summary::NetworkSummary;
use dronet_nn::Network;
use std::time::Duration;

/// Projected execution time of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Time spent on arithmetic (after cache-spill derating).
    pub compute_s: f64,
    /// Time the memory system needs for the layer's traffic.
    pub memory_s: f64,
    /// Whether the layer's weights overflow the last-level cache.
    pub cache_spill: bool,
}

impl LayerTime {
    /// The layer's projected duration: roofline max of compute and memory,
    /// plus nothing (per-layer overhead is added at network level).
    pub fn seconds(&self) -> f64 {
        self.compute_s.max(self.memory_s)
    }
}

/// Projected performance of a network on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Per-layer timing, in execution order.
    pub layers: Vec<LayerTime>,
    /// Total per-frame latency including per-layer overheads.
    pub latency: Duration,
    /// Projected frame rate.
    pub fps: Fps,
}

impl Platform {
    /// Projects one layer's execution time from its cost.
    pub fn layer_time(&self, cost: &LayerCost) -> LayerTime {
        let cache_spill = cost.weight_bytes > self.cache_bytes;
        let gflops = if cache_spill {
            self.effective_gflops * self.cache_spill_factor
        } else {
            self.effective_gflops
        };
        LayerTime {
            compute_s: cost.flops / (gflops * 1e9),
            memory_s: cost.total_bytes() / (self.mem_bw_gbs * 1e9),
            cache_spill,
        }
    }

    /// Projects a network at its configured input size.
    pub fn project(&self, net: &Network) -> Projection {
        let layers: Vec<LayerTime> = NetworkSummary::of("", net)
            .rows
            .iter()
            .map(|row| self.layer_time(&row.cost))
            .collect();
        let total: f64 = layers.iter().map(LayerTime::seconds).sum::<f64>()
            + self.per_layer_overhead_s * layers.len() as f64;
        Projection {
            layers,
            latency: Duration::from_secs_f64(total),
            fps: Fps(if total > 0.0 {
                1.0 / total
            } else {
                f64::INFINITY
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformId;
    use dronet_core::{zoo, ModelId};

    fn project(id: PlatformId, model: ModelId, input: usize) -> Projection {
        let net = zoo::build(model, input).unwrap();
        Platform::preset(id).project(&net)
    }

    /// The headline UAV deployment anchors from paper Section IV-B.
    #[test]
    fn odroid_anchors_match_paper() {
        let dronet = project(PlatformId::OdroidXu4, ModelId::DroNet, 512);
        assert!(
            dronet.fps.0 > 6.0 && dronet.fps.0 < 12.0,
            "DroNet-512 on Odroid projected {} (paper: 8-10 FPS)",
            dronet.fps
        );
        let voc = project(PlatformId::OdroidXu4, ModelId::TinyYoloVoc, 512);
        assert!(
            voc.fps.0 > 0.05 && voc.fps.0 < 0.25,
            "TinyYoloVoc on Odroid projected {} (paper: ~0.1 FPS)",
            voc.fps
        );
        // "DroNet was 40x faster than TinyYoloVoc on Odroid" — the paper's
        // own numbers (8-10 vs 0.1) imply 40-100x; assert that envelope.
        let ratio = dronet.fps.0 / voc.fps.0;
        assert!((35.0..=110.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rpi_anchor_matches_paper() {
        let dronet = project(PlatformId::RaspberryPi3, ModelId::DroNet, 512);
        assert!(
            dronet.fps.0 > 4.0 && dronet.fps.0 < 8.0,
            "DroNet-512 on RPi3 projected {} (paper: 5-6 FPS)",
            dronet.fps
        );
    }

    #[test]
    fn i5_anchors_match_paper() {
        // SmallYoloV3 was the fastest model at ~23 FPS around 384-416.
        let small = project(PlatformId::IntelI5_2520M, ModelId::SmallYoloV3, 384);
        assert!(
            small.fps.0 > 17.0 && small.fps.0 < 29.0,
            "SmallYoloV3-384 on i5 projected {} (paper: 23 FPS)",
            small.fps
        );
        // DroNet ~30x over TinyYoloVoc at the same input size.
        let dronet = project(PlatformId::IntelI5_2520M, ModelId::DroNet, 384);
        let voc = project(PlatformId::IntelI5_2520M, ModelId::TinyYoloVoc, 384);
        let r = dronet.fps.0 / voc.fps.0;
        assert!((20.0..=45.0).contains(&r), "DroNet/TinyYoloVoc on i5 = {r}");
        // TinyYoloNet ~10x over TinyYoloVoc.
        let tnet = project(PlatformId::IntelI5_2520M, ModelId::TinyYoloNet, 384);
        let r = tnet.fps.0 / voc.fps.0;
        assert!(
            (6.0..=15.0).contains(&r),
            "TinyYoloNet/TinyYoloVoc on i5 = {r}"
        );
        // Paper: DroNet peaks at ~18 FPS (the fast end of its 5-18 range).
        assert!(
            dronet.fps.0 > 13.0 && dronet.fps.0 < 24.0,
            "DroNet-384 on i5 projected {}",
            dronet.fps
        );
    }

    #[test]
    fn fps_ordering_matches_paper_everywhere() {
        for id in PlatformId::EVALUATION {
            let small = project(id, ModelId::SmallYoloV3, 416).fps.0;
            let dronet = project(id, ModelId::DroNet, 416).fps.0;
            let tnet = project(id, ModelId::TinyYoloNet, 416).fps.0;
            let voc = project(id, ModelId::TinyYoloVoc, 416).fps.0;
            assert!(
                small > dronet && dronet > tnet && tnet > voc,
                "{id}: {small} {dronet} {tnet} {voc}"
            );
        }
    }

    #[test]
    fn bigger_input_is_slower() {
        for &size in &[352usize, 416, 512, 608] {
            let _ = size; // sweep sanity below
        }
        let f352 = project(PlatformId::OdroidXu4, ModelId::DroNet, 352).fps.0;
        let f608 = project(PlatformId::OdroidXu4, ModelId::DroNet, 608).fps.0;
        assert!(f352 > f608);
    }

    #[test]
    fn tiny_yolo_voc_spills_cache_dronet_does_not() {
        let spills = |model| {
            project(PlatformId::OdroidXu4, model, 416)
                .layers
                .iter()
                .filter(|l| l.cache_spill)
                .count()
        };
        assert!(spills(ModelId::TinyYoloVoc) > 0);
        assert_eq!(spills(ModelId::DroNet), 0);
    }

    #[test]
    fn gpu_is_orders_of_magnitude_faster() {
        let gpu = project(PlatformId::TitanXp, ModelId::TinyYoloVoc, 416);
        let cpu = project(PlatformId::IntelI5_2520M, ModelId::TinyYoloVoc, 416);
        assert!(gpu.fps.0 > 50.0 * cpu.fps.0);
    }

    #[test]
    fn maxpool_layers_are_memory_bound() {
        let projection = project(PlatformId::OdroidXu4, ModelId::DroNet, 512);
        // Layer 1 is the first maxpool in the DroNet cfg.
        let pool_time = &projection.layers[1];
        assert!(pool_time.memory_s > pool_time.compute_s);
        // Layer 0 (the first conv) is compute-bound.
        let conv_time = &projection.layers[0];
        assert!(conv_time.memory_s <= conv_time.compute_s);
    }
}
