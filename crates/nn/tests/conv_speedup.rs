//! Locks the speed-up of the packed implicit-GEMM convolution, and of the
//! kernel pool's hand-off, the way the roadmap asks for one: a before/after
//! ratio on the same machine in the same run, not a number of milliseconds.
//! (The third ratio of the kind, AVX-512F against AVX2, needs to call the
//! instantiations directly and so lives next to them, in
//! `dronet_tensor::packed`'s unit tests.)
//!
//! "Before" is the lowering inference used until the packed kernel landed,
//! rebuilt here from public pieces: `im2col_into` a column matrix, multiply
//! it with the `i-k-j` loop, then batch norm, bias and activation as four
//! passes over the output. It doubles as a differential oracle at DroNet's
//! real scale: both paths must produce the same bits.

use dronet_nn::{Activation, Conv2d};
use dronet_tensor::im2col::{im2col_into, ConvGeometry};
use dronet_tensor::parallel::{par_chunks_mut, worker_count};
use dronet_tensor::{init, ops, Shape, Tensor};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The retired inference lowering of one batch-1 convolution layer.
fn column_matrix_lowering(conv: &Conv2d, x: &Tensor, cols: &mut [f32], out: &mut Tensor) {
    let geom = ConvGeometry {
        channels: conv.in_channels(),
        height: x.shape().height(),
        width: x.shape().width(),
        kernel: conv.kernel(),
        stride: conv.stride(),
        pad: conv.pad(),
    };
    im2col_into(x, 0, &geom, cols).unwrap();
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let weights = conv.weights().as_slice();
    let c = out.as_mut_slice();
    c.fill(0.0);
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        for (p, b_row) in cols.chunks_exact(n).enumerate() {
            let a_ip = weights[i * k + p];
            for (c_val, &b_val) in c_row.iter_mut().zip(b_row) {
                *c_val += a_ip * b_val;
            }
        }
    }
    conv.batch_norm().unwrap().forward_infer(out).unwrap();
    ops::add_channel_bias(out, conv.bias()).unwrap();
    conv.activation().apply_in_place(out.as_mut_slice());
}

/// Best of seven, the two paths interleaved so drift hits both alike.
fn speedup(cin: usize, cout: usize, hw: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut conv = Conv2d::new(cin, cout, 3, 1, 1, Activation::Leaky, true).unwrap();
    conv.init_weights(&mut rng);
    let x = init::uniform(Shape::nchw(1, cin, hw, hw), 0.0, 1.0, &mut rng);
    let mut cols = vec![0.0f32; cin * 9 * hw * hw];
    let mut old_out = Tensor::zeros(Shape::nchw(1, cout, hw, hw));

    let (mut old, mut new) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        let start = Instant::now();
        column_matrix_lowering(&conv, &x, &mut cols, &mut old_out);
        old = old.min(start.elapsed());

        let start = Instant::now();
        let new_out = conv.forward(&x).unwrap();
        new = new.min(start.elapsed());

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&new_out), bits(&old_out), "{cin}->{cout} @ {hw}");
    }
    old.as_secs_f64() / new.as_secs_f64()
}

/// DroNet-352's conv1 and conv2, which were 55% of the frame. The packed
/// path measures 4-5x here; 1.5x leaves room for `cargo test` running other
/// tests on the machine's other cores.
#[test]
fn packed_conv_beats_the_column_matrix_lowering() {
    for (name, cin, cout, hw) in [("conv1", 3, 8, 352), ("conv2", 8, 8, 176)] {
        let ratio = speedup(cin, cout, hw);
        assert!(
            ratio >= 1.5,
            "{name}: packed path only {ratio:.2}x the column-matrix lowering"
        );
        println!("{name}: packed path {ratio:.2}x the column-matrix lowering");
    }
}

/// Handing a job to the persistent kernel pool against what it replaced, a
/// `thread::scope` spawn and join per call: the same do-nothing closure over
/// the same two halves of a buffer, best of seven, interleaved. The pool
/// measures 10-100x ahead (a helper that is still watching joins within a
/// microsecond, a parked one is woken and not waited for); a third of the
/// spawn's time is the bar.
#[test]
fn pool_hand_off_beats_a_scoped_spawn() {
    if worker_count() < 2 {
        println!("one worker: nothing is handed off");
        return;
    }
    // Large enough for `par_chunks_mut` to share it out.
    let (rows, row_len) = (64, 8 * 1024);
    let mut buffer = vec![0.0f32; rows * row_len];
    let job = |_: std::ops::Range<usize>, chunk: &mut [f32]| {
        std::hint::black_box(chunk);
    };
    let (mut pool, mut spawn) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        let start = Instant::now();
        par_chunks_mut(&mut buffer, rows, row_len, job);
        pool = pool.min(start.elapsed());

        let start = Instant::now();
        let (front, back) = buffer.split_at_mut(rows / 2 * row_len);
        std::thread::scope(|scope| {
            scope.spawn(|| job(0..rows / 2, front));
            job(rows / 2..rows, back);
        });
        spawn = spawn.min(start.elapsed());
    }
    println!("hand-off to the pool {pool:?}, scoped spawn and join {spawn:?}");
    assert!(
        pool * 3 <= spawn,
        "pool {pool:?} against a scoped spawn's {spawn:?}"
    );
}
