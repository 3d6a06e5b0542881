//! The frame-acquisition abstraction.
//!
//! The paper's Fig. 5 deployment reads frames from an on-board camera; in
//! this repository frames can come from an iterator of tensors, the
//! synthetic scene generator, or a fault-injection wrapper
//! ([`crate::fault::FaultyFrameSource`]). [`FrameSource`] abstracts over
//! all of them so the supervisor does not care where frames originate —
//! and so acquisition failures (a truncated readout, a corrupt buffer)
//! surface as typed per-frame errors instead of panics.

use crate::{DetectError, Result};
use dronet_tensor::{Shape, Tensor};

/// A stream of camera frames.
///
/// `next_frame` returns `None` at end of stream. A `Some(Err(_))` item is a
/// *per-frame* acquisition failure (e.g. [`DetectError::CorruptFrame`]);
/// the stream itself remains usable and the supervisor skips the frame.
pub trait FrameSource {
    /// Pulls the next frame, blocking until the camera yields one.
    fn next_frame(&mut self) -> Option<Result<Tensor>>;
}

/// Adapts any iterator of tensors into a [`FrameSource`] that never fails.
#[derive(Debug)]
pub struct IterSource<I> {
    iter: I,
}

impl<I: Iterator<Item = Tensor>> IterSource<I> {
    /// Wraps `frames` (anything iterable over tensors).
    pub fn new(frames: impl IntoIterator<Item = Tensor, IntoIter = I>) -> Self {
        IterSource {
            iter: frames.into_iter(),
        }
    }
}

impl<I: Iterator<Item = Tensor>> FrameSource for IterSource<I> {
    fn next_frame(&mut self) -> Option<Result<Tensor>> {
        self.iter.next().map(Ok)
    }
}

/// Nearest-neighbour resize of an NCHW frame to `out_h` × `out_w`.
///
/// This is the runtime half of the paper's resolution knob: the
/// degradation controller picks a smaller input size, incoming camera
/// frames are resampled to it, and the detector runs at their size.
/// Nearest-neighbour matches what a camera ISP downscaler would do cheaply
/// and keeps the pipeline dependency-free.
pub fn resize_frame(frame: &Tensor, out_h: usize, out_w: usize) -> Tensor {
    let s = frame.shape();
    let (n, c, in_h, in_w) = (s.batch(), s.channels(), s.height(), s.width());
    let mut out = Tensor::zeros(Shape::nchw(n, c, out_h, out_w));
    if in_h == 0 || in_w == 0 || out_h == 0 || out_w == 0 {
        return out;
    }
    let src = frame.as_slice();
    let dst = out.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let src_plane = (b * c + ch) * in_h * in_w;
            let dst_plane = (b * c + ch) * out_h * out_w;
            for y in 0..out_h {
                let sy = y * in_h / out_h;
                for x in 0..out_w {
                    let sx = x * in_w / out_w;
                    dst[dst_plane + y * out_w + x] = src[src_plane + sy * in_w + sx];
                }
            }
        }
    }
    out
}

/// Validates a frame against the detector's expected `(c, h, w)` and
/// resizes it when only the spatial size differs.
///
/// # Errors
///
/// Returns [`DetectError::CorruptFrame`] for a non-4D tensor, a batch of
/// other than one image, a channel mismatch, or non-finite pixel values (a
/// NaN-poisoned readout).
pub fn conform_frame(
    frame: Tensor,
    chw: (usize, usize, usize),
    frame_index: usize,
) -> Result<Tensor> {
    let s = frame.shape();
    if s.rank() != 4 || s.batch() != 1 || s.channels() != chw.0 {
        return Err(DetectError::CorruptFrame {
            frame_index,
            msg: format!("shape {s} incompatible with detector input {chw:?}"),
        });
    }
    if frame.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(DetectError::CorruptFrame {
            frame_index,
            msg: "non-finite pixel values".to_string(),
        });
    }
    if (s.height(), s.width()) == (chw.1, chw.2) {
        Ok(frame)
    } else {
        Ok(resize_frame(&frame, chw.1, chw.2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_source_yields_everything_then_none() {
        let frames: Vec<_> = (0..3)
            .map(|_| Tensor::zeros(Shape::nchw(1, 3, 4, 4)))
            .collect();
        let mut src = IterSource::new(frames);
        for _ in 0..3 {
            assert!(matches!(src.next_frame(), Some(Ok(_))));
        }
        assert!(src.next_frame().is_none());
        assert!(src.next_frame().is_none());
    }

    #[test]
    fn resize_identity_and_downscale() {
        let mut t = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let same = resize_frame(&t, 4, 4);
        assert_eq!(same, t);
        let half = resize_frame(&t, 2, 2);
        assert_eq!(half.shape().dims(), &[1, 1, 2, 2]);
        // Nearest-neighbour picks the top-left of each 2x2 block.
        assert_eq!(half.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
        let up = resize_frame(&half, 4, 4);
        assert_eq!(up.shape().dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn nearest_stays_the_default_filter() {
        let mut t = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        // `conform_frame`, the pipeline's resize, samples; it never averages.
        let a = resize_frame(&t, 2, 2);
        let b = conform_frame(t.clone(), (1, 2, 2), 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn conform_accepts_resizes_and_rejects() {
        let ok = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        assert!(conform_frame(ok, (3, 8, 8), 0).is_ok());
        let resized = conform_frame(Tensor::zeros(Shape::nchw(1, 3, 8, 8)), (3, 4, 4), 0).unwrap();
        assert_eq!(resized.shape().dims(), &[1, 3, 4, 4]);
        // Channel mismatch is corrupt.
        let bad_c = Tensor::zeros(Shape::nchw(1, 1, 8, 8));
        assert!(matches!(
            conform_frame(bad_c, (3, 8, 8), 7),
            Err(DetectError::CorruptFrame { frame_index: 7, .. })
        ));
        // A frame is one image: a batch from the camera is corrupt, not
        // the detector's fault.
        let batch = Tensor::zeros(Shape::nchw(2, 3, 8, 8));
        assert!(matches!(
            conform_frame(batch, (3, 8, 8), 1),
            Err(DetectError::CorruptFrame { frame_index: 1, .. })
        ));
        // NaN poisoning is corrupt.
        let mut nan = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
        nan.as_mut_slice()[5] = f32::NAN;
        assert!(matches!(
            conform_frame(nan, (3, 8, 8), 1),
            Err(DetectError::CorruptFrame { .. })
        ));
    }
}
