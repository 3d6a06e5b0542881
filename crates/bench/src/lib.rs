//! # dronet-bench
//!
//! The open-loop load generator ([`loadgen`]), driven by
//! `examples/load_test.rs` and `tests/loadgen_integration.rs`, and the
//! one Criterion bench, `train_step`: one forward + loss + backward + SGD
//! step of MicroDroNet, the only timer of training. A forward is timed by
//! the repo benchmark (`bash benchmark/run.sh`); the paper's tables are
//! printed by `examples/reproduce_paper` and `examples/architectures`.

pub mod loadgen;

use dronet_data::dataset::VehicleDataset;
use dronet_data::scene::SceneConfig;

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
    fn bench_dataset_has_the_requested_scenes() {
        assert_eq!(bench_dataset(64, 4).scenes().len(), 4);
    }
}
