//! # dronet-bench
//!
//! Shared fixtures for the serving grids of `bench_report`, the open-loop
//! load generator ([`loadgen`]) and the one Criterion bench, `train_step`:
//! one forward + loss + backward + SGD step of MicroDroNet, the only timer
//! of training. A forward is timed by the repo benchmark
//! (`bash benchmark/run.sh`); the paper's tables are printed by
//! `examples/reproduce_paper` and `examples/architectures`.

pub mod loadgen;

use dronet_core::zoo;
use dronet_data::dataset::VehicleDataset;
use dronet_data::scene::SceneConfig;
use dronet_nn::Network;
use dronet_tensor::{Shape, Tensor};
use rand::SeedableRng;

/// Deterministic RNG for benchmark inputs.
fn rng(seed: u64) -> rand::rngs::StdRng {
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
