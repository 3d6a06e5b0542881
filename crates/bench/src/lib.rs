//! # dronet-bench
//!
//! Shared fixtures for the Criterion benchmark suite that regenerates the
//! paper's tables and figures. Each bench target corresponds to one
//! artifact of the evaluation section (see `DESIGN.md` §3):
//!
//! | bench | artifact |
//! |-------|----------|
//! | `fig1_architectures` | Fig. 1/2 — per-model forward latency + layer tables |
//! | `fig3_design_space`  | Fig. 3 — input-size sweep, measured + projected |
//! | `fig4_score`         | Fig. 4 — weighted score harness |
//! | `fig5_uav_deployment`| Fig. 5/§IV-B — platform projections + host anchor |
//! | `tab_a_claims`       | §IV-A claim extraction |
//! | `abl_altitude`       | §III-D — altitude gating effect |
//! | `abl_design_choices` | §III-C — DroNet design-rule ablation |
//! | `micro_engine`       | engine kernels: GEMM, im2col, conv, pool, NMS |
//! | `train_step`         | one SGD step of the training pipeline |
//!
//! Benches print the regenerated tables once (via `eprintln!`) before
//! measuring, so `cargo bench` output doubles as the reproduction log.

pub mod loadgen;

use dronet_core::zoo;
use dronet_data::dataset::VehicleDataset;
use dronet_data::scene::SceneConfig;
use dronet_nn::Network;
use dronet_tensor::{Shape, Tensor};
use rand::SeedableRng;

/// Deterministic RNG for benchmark inputs.
pub fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A random `[1, 3, size, size]` input image tensor.
pub fn input_image(size: usize, seed: u64) -> Tensor {
    dronet_tensor::init::uniform(Shape::nchw(1, 3, size, size), 0.0, 1.0, &mut rng(seed))
}

/// Builds a zoo model with randomised weights at the given input size.
pub fn model(id: dronet_core::ModelId, input: usize) -> Network {
    let mut net = zoo::build(id, input).expect("embedded cfg builds");
    net.init_weights(&mut rng(7));
    net
}

/// A small synthetic dataset for training/eval benches.
pub fn bench_dataset(input: usize, scenes: usize) -> VehicleDataset {
    VehicleDataset::generate(
        SceneConfig {
            width: input,
            height: input,
            min_vehicles: 2,
            max_vehicles: 6,
            vehicle_len_frac: (0.12, 0.22),
            occlusion_prob: 0.05,
            ..SceneConfig::default()
        },
        scenes,
        0.8,
        42,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(input_image(32, 1), input_image(32, 1));
        let d = bench_dataset(64, 4);
        assert_eq!(d.scenes().len(), 4);
    }

    #[test]
    fn model_fixture_builds() {
        let net = model(dronet_core::ModelId::DroNet, 96);
        assert_eq!(net.input_chw(), (3, 96, 96));
    }
}
