//! Steady-state allocation discipline, proven under the instrumented
//! allocator: this binary installs [`CountingAlloc`] as its global
//! allocator, so every heap allocation in the process is counted.
//!
//! The headline guarantee: after warmup, a pooled DroNet forward pass
//! performs **zero** heap allocations, at 352² with batch 1 and with the
//! serving batch of 8, and at 96² — activations and the returned output
//! all cycle through the recycled `ActivationPool` — and so does the
//! forward stage of the product's own loop, `Detector::detect`. This is
//! the only place the claim is checked: live, with the [`AllocScope`]s
//! written here, not from a committed report or a product counter.
//! `DRONET_THREADS=1` keeps every kernel on the calling thread, where it
//! indexes its output directly: with more workers a layer that is shared
//! out builds its queue of shares and their row tables on the heap, once
//! per call (and [`AllocScope`] deliberately counts only the calling
//! thread).

use dronet::core::{zoo, ModelId};
use dronet::detect::{Detection, DetectorBuilder};
use dronet::obs::{AllocScope, CountingAlloc, Registry};
use dronet::tensor::{Shape, Tensor};
use dronet::tile::{TiledDetector, TiledDetectorConfig};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Pin the GEMM to the calling thread before any forward caches the
/// worker count. Every test that runs a forward calls this first, so
/// whichever runs first caches `1` for the whole binary. The returned
/// guard runs those tests one at a time, so the process-wide live-byte
/// count moves only with the test that reads it.
fn single_threaded() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("DRONET_THREADS", "1");
    guard
}

/// The acceptance bar for the pooled inference path: a warm DroNet
/// forward performs no heap allocation at all, at 352² with batch 1 and
/// with the serving batch of 8, and at 96². A regressing pool (or a layer
/// quietly growing a per-forward `Vec`) shows up here as a nonzero delta:
/// the whole forward's delta is the sum of every layer's, and a sum of
/// counts is zero only when each of them is.
#[test]
fn steady_state_dronet_forward_is_allocation_free() {
    let _serial = single_threaded();
    assert!(
        dronet::obs::alloc::installed(),
        "this binary must run under CountingAlloc"
    );
    for (size, batch) in [(352, 1), (352, 8), (96, 1)] {
        let mut net = zoo::build(ModelId::DroNet, size).unwrap();
        let x = Tensor::zeros(Shape::nchw(batch, 3, size, size));

        // Warmup: populate the activation pool, fold batch-norm
        // coefficients, size conv scratch. Recycling each output hands the
        // final buffer back, exactly like a serving loop that has finished
        // decoding.
        for _ in 0..3 {
            let y = net.forward(&x).unwrap();
            net.recycle(y);
        }

        let scope = AllocScope::begin();
        let y = net.forward(&x).unwrap();
        let delta = scope.delta();
        net.recycle(y);
        assert_eq!(
            delta.allocs, 0,
            "{size}² batch-{batch} steady-state forward allocated {} times ({} bytes)",
            delta.allocs, delta.bytes
        );
        assert_eq!(delta.bytes, 0, "{size}² batch-{batch}");
    }
}

/// The same bar for the loop the product runs: a warm `Detector::detect`
/// allocates nothing inside its forward stage, because the detector hands
/// each decoded output back to the network's pool. (Before it did, every
/// frame took the pool's smallest fitting buffer out of circulation for
/// good and a later layer allocated its replacement.)
///
/// A confidence threshold of 1 is one no sigmoid objectness reaches, so
/// decode and NMS find nothing and allocate nothing: a warm call then
/// allocates exactly its result, one `Vec` of a `Vec<Detection>` per image,
/// and every other allocation would be the forward's.
#[test]
fn steady_state_detect_allocates_nothing_in_its_forward_stage() {
    let _serial = single_threaded();
    let obs = Registry::new();
    let net = zoo::build(ModelId::DroNet, 352).unwrap();
    let mut detector = DetectorBuilder::new(net)
        .confidence_threshold(1.0)
        .observability(&obs)
        .build()
        .unwrap();
    const PER_IMAGE: u64 = std::mem::size_of::<Vec<Detection>>() as u64;
    let x = Tensor::zeros(Shape::nchw(1, 3, 352, 352));
    for _ in 0..3 {
        detector.detect(&x).unwrap();
    }
    for _ in 0..4 {
        let scope = AllocScope::begin();
        let detections = detector.detect(&x).unwrap();
        let delta = scope.delta();
        assert!(detections.is_empty(), "no objectness reaches 1");
        assert_eq!(
            (delta.allocs, delta.bytes),
            (1, PER_IMAGE),
            "a warm detect allocates its result list and nothing else"
        );
    }
    // Batches go the same way.
    let batch = Tensor::zeros(Shape::nchw(2, 3, 352, 352));
    for _ in 0..3 {
        detector.detect_batch(&batch).unwrap();
    }
    for _ in 0..4 {
        let scope = AllocScope::begin();
        let detections = detector.detect_batch(&batch).unwrap();
        let delta = scope.delta();
        assert!(
            detections.iter().all(Vec::is_empty),
            "no objectness reaches 1"
        );
        assert_eq!(
            (delta.allocs, delta.bytes),
            (1, 2 * PER_IMAGE),
            "a warm detect_batch allocates its result list and nothing else"
        );
    }
}

/// A detector keeps no per-call history: after warm-up, thousands of
/// `detect` calls leave the live heap where it was.
#[test]
fn repeated_detect_does_not_grow_the_live_heap() {
    let _serial = single_threaded();
    let net = zoo::build(ModelId::DroNet, 64).unwrap();
    let mut detector = DetectorBuilder::new(net).build().unwrap();
    let x = Tensor::zeros(Shape::nchw(1, 3, 64, 64));
    for _ in 0..64 {
        detector.detect(&x).unwrap();
    }
    let before = dronet::obs::alloc::stats().live_bytes;
    for _ in 0..4096 {
        detector.detect(&x).unwrap();
    }
    let grown = dronet::obs::alloc::stats()
        .live_bytes
        .saturating_sub(before);
    // Slack for the test harness's own bookkeeping on other threads.
    assert!(
        grown < 16 * 1024,
        "4096 warm detects left {grown} more bytes live"
    );
}

/// The tile driver keeps nothing per tile count: once it has run 8 tiles,
/// runs of 1 to 8 leave the live heap where it was. (It used to keep one
/// `[n, 3, 352, 352]` batch tensor, 1.42 MiB a tile, per count it had seen:
/// about 40 MiB more here.)
#[test]
fn tiled_runs_of_varying_tile_counts_do_not_grow_the_live_heap() {
    let _serial = single_threaded();
    let net = zoo::build(ModelId::DroNet, 352).unwrap();
    let detector = DetectorBuilder::new(net).build().unwrap();
    let mut tiled = TiledDetector::new(detector, (1408, 1408), TiledDetectorConfig::default())
        .expect("tiled detector builds");
    let frame = Tensor::zeros(Shape::nchw(1, 3, 1408, 1408));
    let eight: Vec<usize> = (0..8).collect();
    for id in 0..2 {
        tiled.run_tiles(&frame, &eight, id).unwrap();
    }
    let before = dronet::obs::alloc::stats().live_bytes;
    for n in 1..=8 {
        tiled.run_tiles(&frame, &eight[..n], 2 + n as u64).unwrap();
    }
    let grown = dronet::obs::alloc::stats()
        .live_bytes
        .saturating_sub(before);
    assert!(
        grown < 1 << 20,
        "runs of 1..=8 tiles left {grown} more bytes live"
    );
}

/// Inference never builds a column matrix. Conv1's alone used to be
/// 27 x 123 904 floats (13.4 MB) drawn from the pool; now the convolutions
/// take no heap scratch at all, so everything a *cold* DroNet-352 forward
/// allocates — every activation of the ladder plus the packed weights — is
/// smaller than that one buffer, and so is what the layers leave in the
/// pool they were handed.
#[test]
fn inference_takes_no_column_matrix_scratch() {
    let _serial = single_threaded();
    const CONV1_COLUMN_MATRIX: usize = 27 * 352 * 352;
    let mut net = zoo::build(ModelId::DroNet, 352).unwrap();
    let x = Tensor::zeros(Shape::nchw(1, 3, 352, 352));
    let mut pool = dronet::nn::ActivationPool::default();

    let scope = AllocScope::begin();
    for _ in 0..2 {
        let mut current: Option<Tensor> = None;
        for layer in net.layers_mut() {
            let next = layer
                .forward_pooled(current.as_ref().unwrap_or(&x), &mut pool)
                .unwrap();
            if let Some(consumed) = current.replace(next) {
                pool.give(consumed.into_vec());
            }
        }
        pool.give(current.unwrap().into_vec());
    }
    let allocated_floats = scope.delta().bytes as usize / std::mem::size_of::<f32>();
    assert!(
        allocated_floats < CONV1_COLUMN_MATRIX,
        "two forwards allocated {allocated_floats} floats"
    );
    assert!(
        pool.held() < CONV1_COLUMN_MATRIX,
        "the pool holds {} floats",
        pool.held()
    );
}

/// Training runs the inference kernel and keeps each convolution's input for
/// the backward pass, not the im2col column matrices it once built from it:
/// after a batch-1 DroNet-352 `forward_train`, everything it left live —
/// inputs, pre-activations, batch-norm and pool caches, packed weights, the
/// output — is smaller than those matrices alone (27·352² + 72·176² + …
/// floats, 26.9 MB).
#[test]
fn training_keeps_layer_inputs_not_column_matrices() {
    let _serial = single_threaded();
    let mut net = zoo::build(ModelId::DroNet, 352).unwrap();
    let (mut chw, mut column_floats) = (net.input_chw(), 0);
    for layer in net.layers() {
        let (c, h, w) = layer.output_chw(chw.0, chw.1, chw.2);
        if let Some(conv) = layer.as_conv() {
            column_floats += conv.in_channels() * conv.kernel() * conv.kernel() * h * w;
        }
        chw = (c, h, w);
    }
    let column_bytes = (column_floats * std::mem::size_of::<f32>()) as u64;
    let x = Tensor::zeros(Shape::nchw(1, 3, 352, 352));

    let before = dronet::obs::alloc::stats().live_bytes;
    let y = net.forward_train(&x).unwrap();
    let held = dronet::obs::alloc::stats()
        .live_bytes
        .saturating_sub(before);
    drop(y);
    assert!(
        held < column_bytes,
        "a training forward left {held} bytes live; the column matrices alone are {column_bytes}"
    );
}

/// Nested scopes observe disjoint tails of the same thread-local
/// counters: the inner scope sees only what happened after it began,
/// the outer scope sees everything.
#[test]
fn alloc_scopes_nest() {
    let outer = AllocScope::begin();
    let a: Vec<u8> = Vec::with_capacity(64);
    let inner = AllocScope::begin();
    let b: Vec<u8> = Vec::with_capacity(128);

    let inner_delta = inner.delta();
    let outer_delta = outer.delta();
    assert_eq!(inner_delta.allocs, 1, "inner scope saw only the second Vec");
    assert!(inner_delta.bytes >= 128);
    assert_eq!(outer_delta.allocs, 2, "outer scope saw both Vecs");
    assert!(outer_delta.bytes >= 64 + 128);

    // Scopes are cursors, not regions: discarding the inner one changes
    // nothing, and deltas are monotone in allocation count.
    let _ = inner;
    let c: Vec<u8> = Vec::with_capacity(32);
    assert_eq!(outer.delta().allocs, 3);
    drop((a, b, c));
    // Frees never reduce a delta — the scope measures pressure.
    assert_eq!(outer.delta().allocs, 3);
}

/// Process-wide stats stay self-consistent while this binary churns.
#[test]
fn global_stats_are_consistent() {
    let v: Vec<u8> = Vec::with_capacity(4096);
    let s = dronet::obs::alloc::stats();
    drop(v);
    assert!(s.allocs > 0);
    assert!(s.peak_bytes >= s.live_bytes);
    assert!(s.total_bytes >= s.peak_bytes);
    assert!(dronet::obs::alloc::installed());
}
