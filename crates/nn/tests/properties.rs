//! Property-based tests for the CNN engine: linearity of convolution,
//! pooling invariances, cfg round-trips and weight-file integrity.

use dronet_nn::{
    cfg, weights, Activation, ActivationPool, BatchNorm, Conv2d, Layer, MaxPool2d, Network,
    RegionConfig, RegionLayer,
};
use dronet_tensor::{init, rounding, Shape, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convolution without activation is linear: f(ax + by) = a f(x) + b f(y)
    /// up to the shared bias term. We test with zero bias.
    #[test]
    fn conv_is_linear(
        cin in 1usize..4,
        cout in 1usize..4,
        k in 1usize..4,
        hw in 4usize..9,
        seed in any::<u64>(),
        alpha in -2.0f32..2.0,
    ) {
        let mut conv = Conv2d::new(cin, cout, k, 1, k / 2, Activation::Linear, false).unwrap();
        let mut r = rng(seed);
        conv.init_weights(&mut r);
        let x = init::uniform(Shape::nchw(1, cin, hw, hw), -1.0, 1.0, &mut r);
        let y = init::uniform(Shape::nchw(1, cin, hw, hw), -1.0, 1.0, &mut r);

        let fx = conv.forward_pooled(&x, &mut ActivationPool::default()).unwrap();
        let fy = conv.forward_pooled(&y, &mut ActivationPool::default()).unwrap();
        let mut combo = x.clone();
        combo.scale(alpha);
        combo.axpy(1.0, &y).unwrap();
        let f_combo = conv.forward_pooled(&combo, &mut ActivationPool::default()).unwrap();

        let mut expected = fx.clone();
        expected.scale(alpha);
        expected.axpy(1.0, &fy).unwrap();
        prop_assert!(f_combo.max_abs_diff(&expected).unwrap() < 1e-3);
    }

    /// Max pooling commutes with monotone scaling by a positive constant.
    #[test]
    fn maxpool_commutes_with_positive_scaling(
        c in 1usize..4,
        hw in 4usize..10,
        scale in 0.1f32..5.0,
        seed in any::<u64>(),
    ) {
        let mut pool = MaxPool2d::new(2, 2).unwrap();
        let x = init::uniform(Shape::nchw(1, c, hw, hw), -1.0, 1.0, &mut rng(seed));
        let a = pool.forward_pooled(&x, &mut ActivationPool::default()).unwrap().map(|v| v * scale);
        let mut scaled = x.clone();
        scaled.scale(scale);
        let b = pool.forward_pooled(&scaled, &mut ActivationPool::default()).unwrap();
        prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    /// Pooling never invents values: every output equals some input.
    #[test]
    fn maxpool_outputs_are_inputs(
        hw in 3usize..9,
        size in 2usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
    ) {
        let mut pool = MaxPool2d::new(size, stride).unwrap();
        let x = init::uniform(Shape::nchw(1, 2, hw, hw), -5.0, 5.0, &mut rng(seed));
        let y = pool.forward_pooled(&x, &mut ActivationPool::default()).unwrap();
        for &v in y.as_slice() {
            prop_assert!(
                x.as_slice().iter().any(|&xv| (xv - v).abs() < 1e-6),
                "pooled value {v} not present in input"
            );
        }
    }

    /// Random small networks survive a cfg emit/parse round-trip with
    /// identical architecture.
    #[test]
    fn cfg_roundtrip_random_networks(
        layers in prop::collection::vec((4usize..17, 1usize..4, any::<bool>()), 1..5),
        input in 2usize..5,
    ) {
        let input = input * 16;
        let mut net = Network::new(3, input, input);
        let mut c = 3usize;
        for &(filters, ksize, bn) in &layers {
            let k = if ksize == 2 { 3 } else { ksize }; // avoid even kernels
            net.push(Layer::conv(
                Conv2d::new(c, filters, k, 1, k / 2, Activation::Leaky, bn).unwrap(),
            ));
            c = filters;
        }
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        let text = cfg::emit(&net);
        let back = cfg::parse(&text).unwrap();
        prop_assert_eq!(net.len(), back.len());
        prop_assert_eq!(net.param_count(), back.param_count());
        prop_assert_eq!(net.output_chw(), back.output_chw());
    }

    /// Weight files round-trip bit-exactly for any weight values,
    /// including extremes.
    #[test]
    fn weights_roundtrip_extreme_values(v in prop::num::f32::NORMAL) {
        let mut net = Network::new(1, 8, 8);
        net.push(Layer::conv(
            Conv2d::new(1, 2, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.visit_params_mut(|p, _| p.iter_mut().for_each(|x| *x = v));
        let mut buf = Vec::new();
        weights::save(&net, &mut buf).unwrap();
        let mut loaded = Network::new(1, 8, 8);
        loaded.push(Layer::conv(
            Conv2d::new(1, 2, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        weights::load(&mut loaded, buf.as_slice()).unwrap();
        loaded.visit_params_mut(|p, _| {
            for &x in p.iter() {
                assert_eq!(x.to_bits(), v.to_bits());
            }
        });
    }

    /// Forward output shape always matches `output_shape` prediction.
    #[test]
    fn forward_shape_matches_prediction(
        n in 1usize..3,
        hw in 2usize..5,
        filters in 1usize..8,
    ) {
        let input = hw * 8;
        let mut net = Network::new(3, input, input);
        net.push(Layer::conv(
            Conv2d::new(3, filters, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        let y = net.forward(&Tensor::zeros(Shape::nchw(n, 3, input, input))).unwrap();
        prop_assert_eq!(y.shape(), &net.output_shape(n));
    }

    /// Batch processing equals per-item processing (no cross-batch leaks)
    /// for BN-free networks in inference mode.
    #[test]
    fn batch_equals_per_item(seed in any::<u64>()) {
        let mut net = Network::new(2, 16, 16);
        net.push(Layer::conv(
            Conv2d::new(2, 4, 3, 1, 1, Activation::Leaky, false).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        let mut r = rng(seed);
        net.init_weights(&mut r);
        let batch = init::uniform(Shape::nchw(3, 2, 16, 16), -1.0, 1.0, &mut r);
        let full = net.forward(&batch).unwrap();
        for b in 0..3 {
            let single = net.forward(&batch.batch_item(b).unwrap()).unwrap();
            let from_batch = full.batch_item(b).unwrap();
            prop_assert!(single.max_abs_diff(&from_batch).unwrap() < 1e-5);
        }
    }
}

/// The obvious convolution layer: for each output the sum over `(c, ky, kx)`
/// ascending from +0.0 in `f32`, each tap added the way this CPU's rounding
/// family adds it (`rounding().madd`), then the three epilogue steps in
/// Darknet's order, separately rounded — the numeric contract written down
/// in `dronet_tensor::packed`.
fn naive_conv_layer(conv: &Conv2d, x: &Tensor) -> Vec<f32> {
    let s = x.shape();
    let (n, cin, h, w) = (s.batch(), s.channels(), s.height(), s.width());
    let (k, stride, pad) = (conv.kernel(), conv.stride(), conv.pad());
    let (oh, ow) = conv.output_hw(h, w);
    let (weights, bias, input) = (conv.weights().as_slice(), conv.bias(), x.as_slice());
    let rounding = rounding();
    let mut out = Vec::with_capacity(n * conv.out_channels() * oh * ow);
    for b in 0..n {
        for oc in 0..conv.out_channels() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut v = 0.0f32;
                    for c in 0..cin {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky).wrapping_sub(pad);
                                let ix = (ox * stride + kx).wrapping_sub(pad);
                                let pixel = if iy < h && ix < w {
                                    input[((b * cin + c) * h + iy) * w + ix]
                                } else {
                                    0.0
                                };
                                let w = weights[((oc * cin + c) * k + ky) * k + kx];
                                v = rounding.madd(v, w, pixel);
                            }
                        }
                    }
                    if let Some(bn) = conv.batch_norm() {
                        v += -bn.rolling_mean()[oc];
                        v *= bn.scales()[oc] / (bn.rolling_var()[oc] + BatchNorm::EPS).sqrt();
                    }
                    v += bias[oc];
                    out.push(conv.activation().apply(v));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The packed inference path against the oracle, on bits: output
    /// channel counts that are no multiple of the register tile's height,
    /// planes that are no multiple of its width, every kernel size, stride
    /// and padding the cfg format can express, non-square images, batches,
    /// batch norm on and off, every activation.
    #[test]
    fn packed_conv_matches_the_naive_oracle_bit_for_bit(
        cin in 1usize..6,
        cout in 1usize..20,
        kernel in 0usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        h in 5usize..14,
        dw in 1usize..6,
        batched in any::<bool>(),
        bn in any::<bool>(),
        activation in 0usize..4,
        seed in any::<u64>(),
    ) {
        let kernel = [1, 2, 3, 5][kernel];
        let activation = [
            Activation::Linear,
            Activation::Leaky,
            Activation::Relu,
            Activation::Logistic,
        ][activation];
        let (w, n) = (h + dw, if batched { 3 } else { 1 });
        let mut r = rng(seed);
        let mut conv = Conv2d::new(cin, cout, kernel, stride, pad, activation, bn).unwrap();
        conv.init_weights(&mut r);
        let channel_values = |lo: f32, hi: f32, r: &mut rand::rngs::StdRng| {
            init::uniform(Shape::new(&[cout]), lo, hi, r).into_vec()
        };
        conv.bias_mut().copy_from_slice(&channel_values(-0.5, 0.5, &mut r));
        if let Some(norm) = conv.batch_norm_mut() {
            norm.scales_mut().copy_from_slice(&channel_values(0.5, 1.5, &mut r));
            norm.rolling_mean_mut().copy_from_slice(&channel_values(-0.3, 0.3, &mut r));
            norm.rolling_var_mut().copy_from_slice(&channel_values(0.2, 2.0, &mut r));
        }
        let x = init::uniform(Shape::nchw(n, cin, h, w), -1.0, 1.0, &mut r);

        let want: Vec<u32> = naive_conv_layer(&conv, &x).iter().map(|v| v.to_bits()).collect();
        let got = conv.forward_pooled(&x, &mut ActivationPool::default()).unwrap();
        let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Network::forward` — which takes a downsampling pool in the store of
    /// the convolution ahead of it where the kernel has it that way — equals
    /// chaining `Layer::forward_pooled` layer by layer, bit for bit: random stacks
    /// of convolutions (every kernel size and stride, batch norm on and off)
    /// with and without a pool behind them (the 2x2 stride-2 one, the "same"
    /// pool, a 3x3 stride-2 one), over inputs from a few pixels to sizes
    /// whose first activations are large enough to be fused, even and odd.
    #[test]
    fn network_forward_is_the_layers_chained_bit_for_bit(
        layers in prop::collection::vec(
            (4usize..17, 0usize..3, 0usize..4, any::<bool>(), 0usize..8),
            1..4,
        ),
        large in 0usize..3,
        h in 6usize..40,
        dw in 0usize..4,
        n in 1usize..3,
        seed in any::<u64>(),
    ) {
        let large = large > 0;
        let (h, w) = if large { (4 * h + 120, 4 * h + 120 + 2 * dw) } else { (h, h + dw) };
        let mut r = rng(seed);
        let mut net = Network::new(3, h, w);
        let (mut c, mut side) = (3, h.min(w));
        for &(filters, kernel, stride, bn, pool) in &layers {
            let (kernel, mut stride) = ([1, 3, 5][kernel], [1, 1, 1, 2][stride]);
            // A large input's first layer is the one the fused kernel is
            // for: enough filters, and mostly stride 1, to get there.
            let filters = if large { filters.max(8) } else { filters };
            if large && net.is_empty() && !seed.is_multiple_of(4) {
                stride = 1;
            }
            net.push(Layer::conv(
                Conv2d::new(c, filters, kernel, stride, kernel / 2, Activation::Leaky, bn).unwrap(),
            ));
            (c, side) = (filters, side.div_ceil(stride));
            let pool = match pool {
                0..=4 => MaxPool2d::new(2, 2),
                5 => MaxPool2d::new(2, 1),
                6 => MaxPool2d::new(3, 2),
                _ => continue,
            };
            if side < 4 {
                break;
            }
            side /= pool.as_ref().unwrap().stride();
            net.push(Layer::max_pool(pool.unwrap()));
        }
        net.init_weights(&mut r);
        let x = init::uniform(Shape::nchw(n, 3, h, w), -1.0, 1.0, &mut r);

        let mut chained = x.clone();
        for layer in net.layers().to_vec().iter_mut() {
            chained = layer.forward_pooled(&chained, &mut ActivationPool::default()).unwrap();
        }
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Twice: the second pass runs on recycled buffers with stale contents.
        for _ in 0..2 {
            let y = net.forward(&x).unwrap();
            prop_assert_eq!(y.shape(), chained.shape());
            prop_assert_eq!(bits(&y), bits(&chained));
            net.recycle(y);
        }
    }
}

/// The pool hands out buffers with stale contents, and every inference
/// kernel is trusted to assign each output element without reading it. NaN
/// is the stale content that cannot hide — anything computed from it is NaN
/// — so a pool seeded with NaN-filled buffers, of exactly the length a layer
/// asks for and of a larger capacity, must give the bits of a fresh pool.
#[test]
fn stale_pool_contents_never_reach_an_output() {
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let stale = |len: usize| vec![f32::NAN; len];
    let mut r = rng(23);
    let conv = |kernel: usize, bn: bool, r: &mut rand::rngs::StdRng| {
        let mut conv = Conv2d::new(3, 5, kernel, 1, kernel / 2, Activation::Leaky, bn).unwrap();
        conv.init_weights(r);
        Layer::conv(conv)
    };
    let region = |classes: usize| {
        let anchors = vec![(1.0, 2.0), (3.0, 1.5)];
        Layer::region(RegionLayer::new(RegionConfig { anchors, classes }).unwrap())
    };
    let cases = [
        (conv(3, false, &mut r), Shape::nchw(2, 3, 9, 11)),
        (conv(3, true, &mut r), Shape::nchw(2, 3, 9, 11)),
        (conv(1, false, &mut r), Shape::nchw(2, 3, 9, 11)),
        (conv(1, true, &mut r), Shape::nchw(2, 3, 9, 11)),
        (
            Layer::max_pool(MaxPool2d::new(2, 2).unwrap()),
            Shape::nchw(2, 3, 8, 10),
        ),
        (
            Layer::max_pool(MaxPool2d::new(2, 1).unwrap()),
            Shape::nchw(2, 3, 7, 7),
        ),
        (region(1), Shape::nchw(2, 12, 5, 4)),
        (region(3), Shape::nchw(2, 16, 5, 4)),
    ];
    for (i, (mut layer, shape)) in cases.into_iter().enumerate() {
        let x = init::uniform(shape, -1.0, 1.0, &mut r);
        let want = layer
            .forward_pooled(&x, &mut ActivationPool::default())
            .unwrap();
        assert!(want.as_slice().iter().all(|v| v.is_finite()), "case {i}");
        for extra in [0, 37] {
            let mut pool = ActivationPool::default();
            pool.give(stale(want.len() + extra));
            let got = layer.forward_pooled(&x, &mut pool).unwrap();
            assert_eq!(pool.held(), 0, "case {i}: the seeded buffer was drawn");
            assert_eq!(bits(&got), bits(&want), "case {i}, {extra} spare");
        }
    }

    // A conv + pool pair through `Network::forward`, whose private pool is
    // seeded through `recycle`: at 160 px the pool is taken in the conv's
    // store, at 12 px the two run as separate layers.
    for side in [160, 12] {
        let mut net = Network::new(3, side, side);
        net.push(Layer::conv(
            Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
        ));
        net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
        net.init_weights(&mut r);
        let x = init::uniform(Shape::nchw(2, 3, side, side), -1.0, 1.0, &mut r);
        let want = net.clone().forward(&x).unwrap();
        assert!(want.as_slice().iter().all(|v| v.is_finite()), "{side} px");
        // The pair's output, the convolution's own activation, and spare.
        for len in [want.len(), 4 * want.len(), 4 * want.len() + 37] {
            net.recycle(Tensor::from_vec(stale(len), Shape::new(&[len])).unwrap());
        }
        let got = net.forward(&x).unwrap();
        assert_eq!(bits(&got), bits(&want), "{side} px");
    }
}

/// The hostile-bytes fixture: a small detector (conv + BN, pool, conv,
/// 1×1 head, region) as `.cfg` text and as a DRNW weight file.
fn hostile_fixture() -> (String, Vec<u8>) {
    let mut net = Network::new(3, 32, 32);
    net.push(Layer::conv(
        Conv2d::new(3, 8, 3, 1, 1, Activation::Leaky, true).unwrap(),
    ));
    net.push(Layer::max_pool(MaxPool2d::new(2, 2).unwrap()));
    net.push(Layer::conv(
        Conv2d::new(8, 16, 3, 1, 1, Activation::Leaky, false).unwrap(),
    ));
    net.push(Layer::conv(
        Conv2d::new(16, 6, 1, 1, 0, Activation::Linear, false).unwrap(),
    ));
    net.push(Layer::region(
        RegionLayer::new(RegionConfig {
            anchors: vec![(1.0, 1.0)],
            classes: 1,
        })
        .unwrap(),
    ));
    net.init_weights(&mut rng(6));
    let mut drnw = Vec::new();
    weights::save(&net, &mut drnw).unwrap();
    (cfg::emit(&net), drnw)
}

/// A cfg input gives a typed error, or a network whose own emitted cfg
/// parses back to the same architecture; never a panic.
fn check_cfg(text: &str) {
    if let Ok(net) = cfg::parse(text) {
        let back = cfg::parse(&cfg::emit(&net)).expect("an accepted network re-parses");
        assert_eq!(
            (back.len(), back.param_count(), back.output_chw()),
            (net.len(), net.param_count(), net.output_chw()),
            "{text:?}"
        );
    }
}

/// A DRNW input loaded into the fixture's architecture gives a typed
/// error, or a network that saves back to exactly those bytes (it read
/// the whole file, and every value it holds is the file's); never a
/// panic. Returns whether it loaded.
fn check_drnw(text: &str, bytes: &[u8]) -> bool {
    let mut net = cfg::parse(text).unwrap();
    if weights::load(&mut net, bytes).is_err() {
        return false;
    }
    let mut again = Vec::new();
    weights::save(&net, &mut again).unwrap();
    assert_eq!(again, bytes, "a loaded file saves back unchanged");
    true
}

#[test]
fn every_cfg_prefix_parses_or_is_a_typed_error() {
    let (text, _) = hostile_fixture();
    check_cfg(&text);
    assert!(cfg::parse(&text).is_ok());
    for cut in 0..text.len() {
        check_cfg(&text[..cut]);
    }
}

#[test]
fn every_strict_drnw_prefix_is_rejected() {
    let (text, drnw) = hostile_fixture();
    assert!(check_drnw(&text, &drnw));
    for cut in 0..drnw.len() {
        assert!(
            !check_drnw(&text, &drnw[..cut]),
            "a {cut}-byte prefix loaded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One byte of a valid cfg replaced by any value (invalid UTF-8 is
    /// read lossily, as a caller decoding a file would).
    #[test]
    fn cfg_survives_any_single_byte_mutation(pos in any::<u16>(), byte in any::<u8>()) {
        let (text, _) = hostile_fixture();
        let mut bytes = text.into_bytes();
        let at = pos as usize % bytes.len();
        bytes[at] = byte;
        check_cfg(&String::from_utf8_lossy(&bytes));
    }

    /// One byte of a valid DRNW file replaced by any value.
    #[test]
    fn drnw_survives_any_single_byte_mutation(pos in any::<u16>(), byte in any::<u8>()) {
        let (text, mut drnw) = hostile_fixture();
        let at = pos as usize % drnw.len();
        drnw[at] = byte;
        check_drnw(&text, &drnw);
    }
}
