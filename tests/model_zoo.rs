//! Integration checks on the model zoo: cfg round-trips, weight files,
//! forward determinism and cross-crate consistency of the cost model.

use dronet::core::{zoo, ModelId};
use dronet::nn::{cfg, summary::NetworkSummary, weights};
use dronet::platform::{Platform, PlatformId};
use dronet::tensor::{init, Shape, Tensor};
use rand::SeedableRng;

#[test]
fn every_zoo_model_cfg_roundtrips() {
    for id in ModelId::ALL {
        let net = zoo::build(id, 416).unwrap();
        let text = cfg::emit(&net);
        let reparsed = cfg::parse(&text).unwrap();
        assert_eq!(net.len(), reparsed.len(), "{id}");
        assert_eq!(net.param_count(), reparsed.param_count(), "{id}");
        assert_eq!(net.output_chw(), reparsed.output_chw(), "{id}");
    }
}

#[test]
fn weights_roundtrip_preserves_inference() {
    // Use a reduced input so the forward pass stays fast in CI.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for id in [ModelId::DroNet, ModelId::SmallYoloV3] {
        let mut net = zoo::build(id, 96).unwrap();
        net.init_weights(&mut rng);
        let mut buf = Vec::new();
        weights::save(&net, &mut buf).unwrap();

        let mut loaded = zoo::build(id, 96).unwrap();
        weights::load(&mut loaded, buf.as_slice()).unwrap();

        let x = init::uniform(Shape::nchw(1, 3, 96, 96), 0.0, 1.0, &mut rng);
        let a = net.forward(&x).unwrap();
        let b = loaded.forward(&x).unwrap();
        assert_eq!(a, b, "{id}");
    }
}

#[test]
fn weights_of_one_model_do_not_load_into_another() {
    let net = zoo::build(ModelId::DroNet, 96).unwrap();
    let mut buf = Vec::new();
    weights::save(&net, &mut buf).unwrap();
    let mut other = zoo::build(ModelId::SmallYoloV3, 96).unwrap();
    assert!(weights::load(&mut other, buf.as_slice()).is_err());
}

#[test]
fn forward_is_deterministic() {
    let mut net = zoo::build(ModelId::DroNet, 96).unwrap();
    let x = Tensor::full(Shape::nchw(1, 3, 96, 96), 0.5);
    let a = net.forward(&x).unwrap();
    let b = net.forward(&x).unwrap();
    assert_eq!(a, b);
}

/// Four threads forwarding at once contend for the kernel pool's one slot —
/// whoever finds it taken computes alone, the others race their hand-off
/// against joining helpers — and every forward still has the bits of the
/// same forward run with nobody else about. Batches of three, so that the
/// first two convolutions are large enough to be shared out.
#[test]
fn concurrent_forwards_have_the_bits_of_sequential_ones() {
    let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut net = zoo::build(ModelId::DroNet, 96).unwrap();
    net.init_weights(&mut rand::rngs::StdRng::seed_from_u64(7));
    let inputs: Vec<Tensor> = (0..4)
        .map(|i| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(20 + i);
            init::uniform(Shape::nchw(3, 3, 96, 96), 0.0, 1.0, &mut rng)
        })
        .collect();
    let sequential: Vec<_> = inputs
        .iter()
        .map(|x| bits(net.forward(x).unwrap()))
        .collect();

    let start = std::sync::Barrier::new(inputs.len());
    std::thread::scope(|scope| {
        for (x, want) in inputs.iter().zip(&sequential) {
            let (mut net, start) = (net.clone(), &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..8 {
                    assert_eq!(&bits(net.forward(x).unwrap()), want, "round {round}");
                }
            });
        }
    });
}

#[test]
fn micro_dronet_matches_design_rules() {
    let net = zoo::micro_dronet(64, vec![(1.0, 1.0), (2.0, 2.0)]).unwrap();
    // 8x downsampling: 64 -> 8x8 grid, 2 anchors x 6 entries = 12 channels.
    assert_eq!(net.output_chw(), (12, 8, 8));
    let wider = zoo::micro_dronet_with_width(64, vec![(1.0, 1.0)], 2).unwrap();
    assert!(wider.param_count() > 3 * net.param_count());
    assert!(zoo::micro_dronet_with_width(0, vec![(1.0, 1.0)], 1).is_err());
    assert!(zoo::micro_dronet_with_width(64, vec![(1.0, 1.0)], 0).is_err());
    assert!(zoo::micro_dronet(64, vec![]).is_err());
}

#[test]
fn cost_model_is_consistent_with_projection() {
    // Latency ordering must match GFLOP ordering for cache-resident models
    // on the same platform.
    let platform = Platform::preset(PlatformId::RaspberryPi3);
    let dronet = zoo::build(ModelId::DroNet, 416).unwrap();
    let small = zoo::build(ModelId::SmallYoloV3, 416).unwrap();
    let gflops = |net| NetworkSummary::of("", net).total_gflops();
    assert!(gflops(&dronet) > gflops(&small));
    assert!(platform.project(&dronet).latency > platform.project(&small).latency);
}

#[test]
fn input_size_changes_grid_not_weights() {
    let mut net = zoo::build(ModelId::DroNet, 416).unwrap();
    let params_before = net.param_count();
    net.set_input_size(608, 608).unwrap();
    assert_eq!(net.param_count(), params_before);
    assert_eq!(net.output_chw(), (30, 19, 19));
}
