//! Engine microbenchmarks: the kernels every experiment rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dronet_bench::rng;
use dronet_detect::nms::non_max_suppression;
use dronet_detect::Detection;
use dronet_metrics::BBox;
use dronet_nn::{Activation, ActivationPool, Conv2d, MaxPool2d};
use dronet_tensor::im2col::{im2col, ConvGeometry};
use dronet_tensor::{gemm, init, Shape, Tensor};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    // Representative DroNet layer shapes as (m, k, n) GEMMs.
    for &(m, k, n, label) in &[
        (8usize, 27usize, 262_144usize, "c1@512"),
        (128, 576, 256, "c6@512-grid16"),
        (30, 128, 256, "head@512"),
        (256, 256, 1024, "square-mid"),
    ] {
        let mut r = rng(1);
        let a = init::uniform(Shape::matrix(m, k), -1.0, 1.0, &mut r);
        let b = init::uniform(Shape::matrix(k, n), -1.0, 1.0, &mut r);
        let mut out = Tensor::zeros(Shape::matrix(m, n));
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            bench.iter(|| {
                gemm::sgemm(false, false, 1.0, &a, &b, 0.0, &mut out).unwrap();
                std::hint::black_box(out.as_slice()[0]);
            })
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    for &(ch, hw) in &[(3usize, 256usize), (16, 64), (64, 16)] {
        let geom = ConvGeometry {
            channels: ch,
            height: hw,
            width: hw,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = init::uniform(Shape::nchw(1, ch, hw, hw), -1.0, 1.0, &mut rng(2));
        group.bench_function(
            BenchmarkId::from_parameter(format!("{ch}x{hw}x{hw}")),
            |b| b.iter(|| std::hint::black_box(im2col(&x, &geom).unwrap().len())),
        );
    }
    group.finish();
}

fn bench_conv_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_forward");
    for &(cin, cout, hw, label) in &[(3usize, 8usize, 256usize, "stem"), (64, 128, 16, "deep")] {
        let mut conv = Conv2d::new(cin, cout, 3, 1, 1, Activation::Leaky, true).unwrap();
        conv.init_weights(&mut rng(3));
        let x = init::uniform(Shape::nchw(1, cin, hw, hw), -1.0, 1.0, &mut rng(4));
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let y = conv
                    .forward_pooled(&x, &mut ActivationPool::default())
                    .unwrap();
                std::hint::black_box(y.len())
            })
        });
    }
    group.finish();
}

fn bench_maxpool(c: &mut Criterion) {
    let mut pool = MaxPool2d::new(2, 2).unwrap();
    let x = init::uniform(Shape::nchw(1, 16, 256, 256), -1.0, 1.0, &mut rng(5));
    c.bench_function("maxpool_2x2_16x256", |b| {
        b.iter(|| {
            let y = pool
                .forward_pooled(&x, &mut ActivationPool::default())
                .unwrap();
            std::hint::black_box(y.len())
        })
    });
}

fn bench_nms(c: &mut Criterion) {
    let mut r = rng(6);
    let detections: Vec<Detection> = (0..500)
        .map(|i| {
            use rand::Rng;
            Detection {
                bbox: BBox::new(r.gen(), r.gen(), 0.05 + r.gen::<f32>() * 0.1, 0.05),
                objectness: 0.3 + 0.7 * (i as f32 / 500.0),
                class: 0,
                class_prob: 1.0,
            }
        })
        .collect();
    c.bench_function("nms_500_boxes", |b| {
        b.iter(|| std::hint::black_box(non_max_suppression(detections.clone(), 0.45).len()))
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_gemm, bench_im2col, bench_conv_layer, bench_maxpool, bench_nms
}
criterion_main!(benches);
