//! The one GEMM kernel of the workspace: a packed, register-tiled
//! `MR x NR` microkernel, and the implicit-GEMM convolution built on it.
//!
//! Both [`crate::gemm`] and [`conv2d`] lower to the same loop nest. The
//! left operand is packed into `MR`-tall panels `[panel][k][MR]` — once per
//! layer for convolution weights ([`PackedMatrix`]), once per call for a
//! GEMM. The output columns are cut into strips of `NR`, the tile width the
//! `dispatch` module fixes per instruction set (8, or 16 under AVX-512F);
//! for each strip and each `KC`-deep block of the shared dimension a
//! `KC x NR` panel of the right operand is packed on the worker's stack,
//! and every A panel is multiplied against it in registers. For a
//! convolution the right operand is never materialised: the packer reads
//! the `NR` output pixels' taps **straight from the input, where it lies**
//! ([`Views`]: a dense NCHW batch, or windows into a larger frame read
//! through its row and plane pitch), so neither the `[c*k*k, oh*ow]` column
//! matrix of [`crate::im2col`] nor a copy of a window exists at inference,
//! and batch-norm, bias and activation are applied as the
//! last block is stored — and so, for a thin full-resolution layer, is the
//! 2x2 max pool behind it ([`conv2d_pooled`]): the kernel then walks pooled
//! output rows, computes the two convolution rows above each as two tiles
//! and stores their window maxima, so the activation between the two layers
//! is never written. Work is shared out over column strips (and batch
//! items) as a queue of shares that the calling thread drains alongside
//! the kernel pool's helpers ([`crate::parallel`]).
//!
//! # Numeric contract
//!
//! Every sum is taken one tap at a time in ascending order of the shared
//! dimension, `sum ← madd(sum, w, x)`, where `madd` belongs to one of two
//! rounding families ([`Rounding`]; [`rounding`] says which one this
//! process runs, and the CPU decides it):
//!
//! * **Separate** — the portable instantiation: `sum + w·x`, multiply and
//!   add each rounded to `f32`;
//! * **Fused** — the AVX2 + FMA and the AVX-512F + FMA instantiations:
//!   `fma(w, x, sum)`, one rounding per tap.
//!
//! For finite inputs every convolution output equals, bit for bit,
//! `act(((Σ w·x) + (−mean))·scale + bias)` with the sum taken that way over
//! `(c, ky, kx)` ascending from `+0.0` in `f32` — in the Separate family the
//! arithmetic of `im2col` followed by a naive `i-k-j` GEMM. Batch norm, bias
//! and activation are separately rounded steps in both families, and so is
//! the `alpha` scaling of a GEMM's packed operand. A GEMM computes
//! `c ← beta·c` (`0` for `beta = 0`, untouched for `beta = 1`) and then
//! `c ← madd(c, alpha·a_ik, b_kj)` for `k` ascending. Partial sums that cross
//! a `KC` block travel through the output buffer as `f32`, which changes
//! nothing. A pooled store ([`conv2d_pooled`]) is the maximum of four values
//! each computed exactly as above, taken the way the max-pooling layer takes
//! it: by `v > best` from −∞ over top-left, top-right, bottom-left,
//! bottom-right, so NaN never wins and of two zeros the first does, with
//! `0.0` for a window in which nothing beat −∞. Within a family the result
//! is independent of the tile sizes, of how strips are shared between
//! threads, of the [`Views`] an input is read through, and of the
//! instantiation (the `dispatch` module); across the families it differs in
//! the last bits.
//!
//! One deliberate difference from the `i-k-j` loop this kernel replaced:
//! that loop skipped exactly-zero weights, so a zero weight masked a
//! non-finite activation. Here IEEE holds: `0·NaN = NaN`.

use crate::dispatch::{self, Kernel};
use crate::im2col::ConvGeometry;
use crate::{parallel, Result, Shape, Tensor, TensorError};
use std::ops::Range;

/// Rows of the left operand (output channels) per register tile. The
/// columns per tile, `NR`, are a const parameter the `dispatch` module
/// fixes per instruction set.
const MR: usize = 8;
/// Depth of a packed right-operand panel. `KC x NR` floats live on the
/// worker's stack and stay in L1 while every A panel streams past them;
/// the backward GEMMs have `k = oh*ow` in the hundred thousands, so the
/// shared dimension must be blocked.
const KC: usize = 256;
/// Below this many multiply-adds a kernel runs on the calling thread
/// alone. Handing work to the pool costs microseconds, so the bound is not
/// the hand-off but the smallest layer that two threads finish sooner than
/// one (EXPERIMENTS.md, "PR 19"); every layer of a 64x64 forward is below.
const PAR_MIN_MACS: usize = 1 << 21;
/// Below this many convolution outputs per image [`pools_in_store`] leaves
/// the layer to [`conv2d`] and a pooling pass. What the pooled store saves
/// is writing the activation and reading it back; what it costs is strips
/// that end with each output row instead of running on into the next.
/// Measured over every convolution + pool pair of the zoo at 352-608 on one
/// CPU and on two (EXPERIMENTS.md, "PR 21"): from 0.25 M outputs (1 MB; of
/// DroNet-352, conv1 and conv2) every pair gains or holds, 0.98-1.47x; at
/// 0.19 M and below (conv3 on: activations that stay in L2, rows of 100
/// columns and fewer) it is 0.88-1.2x on two CPUs and level or behind on one.
const POOL_IN_STORE_MIN_OUTPUTS: usize = 3 << 16;

/// How a kernel rounds `sum + w·x`: the two families of the
/// [numeric contract](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// Multiply, round, add, round: the portable instantiation.
    Separate,
    /// One fused multiply-add, rounded once: the AVX2 and AVX-512F
    /// instantiations.
    Fused,
}

impl Rounding {
    /// `acc + a·b` rounded the way this family rounds it: what the kernel
    /// does per tap, for oracles that fold it over a sum.
    ///
    /// ```
    /// use dronet_tensor::Rounding;
    /// let (a, acc) = (1.0 + 2f32.powi(-12), -(1.0 + 2f32.powi(-11)));
    /// // a·a = 1 + 2⁻¹¹ + 2⁻²⁴: the last term is lost to the rounded product.
    /// assert_eq!(Rounding::Separate.madd(acc, a, a), 0.0);
    /// assert_eq!(Rounding::Fused.madd(acc, a, a), 2f32.powi(-24));
    /// ```
    pub fn madd(self, acc: f32, a: f32, b: f32) -> f32 {
        match self {
            Rounding::Separate => acc + a * b,
            Rounding::Fused => fused_multiply_add(a, b, acc),
        }
    }
}

/// The rounding family of every kernel in this module on this CPU.
pub fn rounding() -> Rounding {
    dispatch::rounding()
}

/// `a·b + c` rounded once to nearest even, without the `fma` instruction,
/// so that an oracle does not share the kernel's arithmetic. The product of
/// two `f32` is exact in `f64`. The sum is rounded to `f64` *to odd* (an
/// inexact result keeps or takes an odd last bit), and with 53 ≥ 2·24 + 2
/// bits that value rounds to the correctly rounded `f32` (Boldo and
/// Melquiond, "Emulation of FMA and correctly rounded sums", 2008).
fn fused_multiply_add(a: f32, b: f32, c: f32) -> f32 {
    let (product, c) = (f64::from(a) * f64::from(b), f64::from(c));
    let sum = product + c;
    if !sum.is_finite() {
        return sum as f32;
    }
    // What rounding the sum to `f64` lost, exactly (Knuth's two-sum).
    let c_part = sum - product;
    let lost = (product - (sum - c_part)) + (c - c_part);
    let bits = sum.to_bits();
    let odd = match lost != 0.0 && bits & 1 == 0 {
        // The exact sum lies between `sum` and its neighbour towards `lost`,
        // whose last bit is odd.
        true if (lost > 0.0) == (sum > 0.0) => f64::from_bits(bits + 1),
        true => f64::from_bits(bits - 1),
        false => sum,
    };
    odd as f32
}

/// A row-major matrix repacked into `MR`-tall panels for the microkernel.
///
/// Convolution layers pack their `[out_c, in_c*k*k]` weight matrix once and
/// keep the result until the weights change.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    panels: Vec<f32>,
}

impl PackedMatrix {
    /// Packs the row-major `rows x cols` matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `a` does not hold
    /// `rows * cols` elements.
    pub fn pack(a: &[f32], rows: usize, cols: usize) -> Result<Self> {
        if a.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: a.len(),
            });
        }
        Ok(PackedMatrix {
            rows,
            cols,
            panels: pack_a(a, rows, cols, cols, 1, 1.0),
        })
    }
}

/// Packs `alpha * A` into `[panel][k][MR]` order, where element `(i, p)` of
/// the `m x k` matrix `A` is `a[i * rs + p * cs]`. Rows past `m` in the
/// last panel are zero; their products are computed and never stored.
fn pack_a(a: &[f32], m: usize, k: usize, rs: usize, cs: usize, alpha: f32) -> Vec<f32> {
    let mut panels = vec![0.0f32; m.div_ceil(MR) * k * MR];
    if k == 0 {
        return panels;
    }
    for (panel, packed) in panels.chunks_exact_mut(k * MR).enumerate() {
        let i0 = panel * MR;
        for i in 0..MR.min(m - i0) {
            for p in 0..k {
                packed[p * MR + i] = alpha * a[(i0 + i) * rs + p * cs];
            }
        }
    }
    panels
}

/// Where the right operand's `KC x NR` panels come from.
trait PanelSource: Copy + Send {
    /// Fills `panel[p][t]` with element `(kb + p, j0 + t)` of the right
    /// operand for every `p` the panel has room for and `t < nv`; columns
    /// `nv..NR` are zeroed.
    fn pack<const NR: usize>(self, j0: usize, nv: usize, kb: usize, panel: &mut [[f32; NR]]);
}

/// A matrix in memory: element `(p, j)` is `data[p * rs + j * cs]`.
#[derive(Clone, Copy)]
struct MatrixSource<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl PanelSource for MatrixSource<'_> {
    #[inline(always)]
    fn pack<const NR: usize>(self, j0: usize, nv: usize, kb: usize, panel: &mut [[f32; NR]]) {
        for (p, dst) in panel.iter_mut().enumerate() {
            let row = (kb + p) * self.rs;
            if self.cs == 1 && nv == NR {
                dst.copy_from_slice(&self.data[row + j0..][..NR]);
            } else {
                for (t, d) in dst.iter_mut().enumerate() {
                    *d = if t < nv {
                        self.data[row + (j0 + t) * self.cs]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// The input of [`conv2d`] and [`conv2d_pooled`]: a batch of `[c, h, w]`
/// images, one view per batch item, each read where it lies in memory.
///
/// A view reads its pixel `(c, y, x)` at `origin + c·plane_pitch +
/// y·row_pitch + x` inside its visible extent and zero outside it. The
/// convolution's own zero padding surrounds the `h x w` view, whatever lies
/// next to it in memory, so a window computes the bits of its copy.
#[derive(Debug, Clone, Copy)]
pub enum Views<'a> {
    /// A dense `[n, c, h, w]` batch: item `i` at `i·c·h·w`, rows `w` apart,
    /// all of it visible.
    Batch(&'a Tensor),
    /// Windows into the `[1, c, frame_h, frame_w]` tensor `frame`, one per
    /// top-left corner `(y0, x0)` inside it: rows `frame_w` apart, planes
    /// `frame_h·frame_w`. What of a window lies past the frame's right or
    /// bottom edge reads as zero.
    Windows {
        /// The frame every window reads from.
        frame: &'a Tensor,
        /// `(h, w)` of every window.
        size: (usize, usize),
        /// Each window's top-left pixel `(y0, x0)` in the frame.
        corners: &'a [(usize, usize)],
    },
}

impl<'a> From<&'a Tensor> for Views<'a> {
    fn from(batch: &'a Tensor) -> Self {
        Views::Batch(batch)
    }
}

impl<'a> Views<'a> {
    /// The shape of the batch the views stand for: `[corners, c, h, w]` for
    /// windows, the tensor's own (of whatever rank) for a dense batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for windows into anything
    /// but a `[1, c, h, w]` frame, empty windows, or a corner outside the
    /// frame.
    pub fn shape(&self) -> Result<Shape> {
        let (frame, (h, w), corners) = match *self {
            Views::Batch(batch) => return Ok(*batch.shape()),
            Views::Windows {
                frame,
                size,
                corners,
            } => (frame, size, corners),
        };
        let s = frame.shape();
        let outside = |&&(y0, x0): &&(usize, usize)| y0 >= s.height() || x0 >= s.width();
        let msg = if s.rank() != 4 || s.batch() != 1 {
            format!("windows into a {s} tensor, not a [1, c, h, w] frame")
        } else if h == 0 || w == 0 {
            format!("{h}x{w} windows")
        } else if let Some((y0, x0)) = corners.iter().find(outside) {
            format!("corner ({y0}, {x0}) outside a {s} frame")
        } else {
            return Ok(Shape::nchw(corners.len(), s.channels(), h, w));
        };
        Err(TensorError::InvalidArgument { op: "views", msg })
    }

    /// Item `i` as the implicit column matrix of `geom`, a geometry that
    /// agrees with [`Views::shape`].
    fn source(&self, i: usize, geom: &ConvGeometry) -> ImageSource<'a> {
        let (h, w) = (geom.height, geom.width);
        match *self {
            Views::Batch(batch) => {
                let item = geom.channels * h * w;
                ImageSource::dense(&batch.as_slice()[i * item..][..item], geom)
            }
            Views::Windows { frame, corners, .. } => {
                let (fh, fw) = (frame.shape().height(), frame.shape().width());
                let (y0, x0) = corners[i];
                let image = &frame.as_slice()[y0 * fw + x0..];
                let visible = ((fh - y0).min(h), (fw - x0).min(w));
                ImageSource::new(image, geom, (fw, fh * fw), visible)
            }
        }
    }
}

/// The implicit column matrix of a convolution: row `(c, ky, kx)`, column
/// `oy * ow + ox` is the input pixel that tap sees there, or zero — padding,
/// or past the visible extent.
#[derive(Clone, Copy)]
struct ImageSource<'a> {
    /// The image from its origin on: pixel `(c, y, x)` is
    /// `image[c * plane_pitch + y * row_pitch + x]`.
    image: &'a [f32],
    geom: ConvGeometry,
    out_width: usize,
    row_pitch: usize,
    plane_pitch: usize,
    /// The rows and columns of the `height x width` image that hold
    /// pixels; past them it reads as zero, like the padding around it.
    visible: (usize, usize),
}

impl<'a> ImageSource<'a> {
    /// The implicit column matrix of one `[c, h, w]` image under `geom`,
    /// its rows and planes `(row, plane)` = `pitch` elements apart.
    fn new(
        image: &'a [f32],
        geom: &ConvGeometry,
        pitch: (usize, usize),
        visible: (usize, usize),
    ) -> Self {
        let (h, w) = (geom.height, geom.width);
        let (geom, pitch, visible) = match pitch == (w, h * w) && visible == (h, w) {
            true if flattens(geom) => {
                let flat = ConvGeometry {
                    height: 1,
                    width: h * w,
                    ..*geom
                };
                (flat, (h * w, h * w), (1, h * w))
            }
            _ => (*geom, pitch, visible),
        };
        ImageSource {
            image,
            geom,
            out_width: geom.out_width(),
            row_pitch: pitch.0,
            plane_pitch: pitch.1,
            visible,
        }
    }

    /// [`ImageSource::new`] for an image whose rows and planes lie back to
    /// back, all of it visible.
    fn dense(image: &'a [f32], geom: &ConvGeometry) -> Self {
        let (h, w) = (geom.height, geom.width);
        ImageSource::new(image, geom, (w, h * w), (h, w))
    }

    /// Channel `c`'s pixels, from the origin to its last visible one.
    #[inline(always)]
    fn plane(self, c: usize) -> &'a [f32] {
        let (rows, cols) = self.visible;
        &self.image[c * self.plane_pitch..][..(rows - 1) * self.row_pitch + cols]
    }
}

/// A 1x1 stride-1 unpadded convolution never looks across pixels, so its
/// image is as good as one long row: every full strip is then a straight
/// copy of NR consecutive activations, whatever the real width.
fn flattens(geom: &ConvGeometry) -> bool {
    geom.kernel == 1 && geom.stride == 1 && geom.pad == 0
}

/// The tap `(c, ky, kx)` a row of the implicit column matrix stands for.
#[derive(Clone, Copy)]
struct Tap {
    c: usize,
    ky: usize,
    kx: usize,
}

impl Tap {
    /// The tap of row `row` under a `k x k` kernel.
    #[inline(always)]
    fn of_row(row: usize, k: usize) -> Tap {
        match row {
            0 => Tap { c: 0, ky: 0, kx: 0 },
            _ => Tap {
                c: row / (k * k),
                ky: row / k % k,
                kx: row % k,
            },
        }
    }

    /// Steps to the next row's tap.
    #[inline(always)]
    fn advance(&mut self, k: usize) {
        self.kx += 1;
        if self.kx == k {
            (self.ky, self.kx) = (self.ky + 1, 0);
            if self.ky == k {
                (self.c, self.ky) = (self.c + 1, 0);
            }
        }
    }
}

impl PanelSource for ImageSource<'_> {
    #[inline(always)]
    fn pack<const NR: usize>(self, j0: usize, nv: usize, kb: usize, panel: &mut [[f32; NR]]) {
        let ConvGeometry {
            width: w,
            kernel: k,
            stride,
            pad,
            ..
        } = self.geom;
        let (rows, cols) = self.visible;
        let ow = self.out_width;
        let (oy0, ox0) = (j0 / ow, j0 % ow);
        if stride == 1 && nv == NR && ox0 + NR <= ow {
            // A full strip inside one output row of a stride-1 convolution
            // reads NR consecutive input pixels per tap; under a 3x3 kernel,
            // away from the left and right borders, all three taps of a
            // `(c, ky)` group read them out of one NR + 2 pixel window.
            if k == 3 && ox0 >= pad && ox0 - pad + NR + 2 <= cols {
                self.pack_interior_3x3(oy0, ox0 - pad, kb, panel);
            } else {
                self.pack_in_row(oy0, ox0, kb, panel);
            }
            return;
        }
        let mut tap = Tap::of_row(kb, k);
        // Where each column's window starts in the input; columns past `nv`
        // get a row that fails the bounds test under every tap. Coordinates
        // left of / above the image wrap to huge values and fail the
        // `< rows` / `< cols` tests like those on the far side.
        let (mut iy0, mut ix0) = ([rows; NR], [0usize; NR]);
        let (mut oy, mut ox) = (oy0, ox0);
        for (iy, ix) in iy0.iter_mut().zip(&mut ix0).take(nv) {
            *iy = (oy * stride).wrapping_sub(pad);
            *ix = (ox * stride).wrapping_sub(pad);
            ox += 1;
            if ox == ow {
                (oy, ox) = (oy + 1, 0);
            }
        }
        // When a stride-1 convolution's output is as wide as its input and
        // its rows lie back to back, a full strip that runs on into the next
        // output row still reads NR consecutive input pixels per tap — the
        // step to the next row is the same in both — except where a window
        // hangs over a border.
        let pitch = self.row_pitch;
        let consecutive = stride == 1 && nv == NR && ow == w && pitch == w;
        let origin = iy0[0].wrapping_mul(pitch).wrapping_add(ix0[0]);
        for dst in panel {
            let plane = self.plane(tap.c);
            let first = origin.wrapping_add(tap.ky * pitch + tap.kx);
            let pixels = match consecutive {
                true => plane.get(first..first.wrapping_add(NR)),
                false => None,
            };
            for (t, d) in dst.iter_mut().enumerate() {
                let iy = iy0[t].wrapping_add(tap.ky);
                let ix = ix0[t].wrapping_add(tap.kx);
                *d = match pixels {
                    _ if iy >= rows || ix >= cols => 0.0,
                    Some(pixels) => pixels[t],
                    None => plane[iy * pitch + ix],
                };
            }
            tap.advance(k);
        }
    }
}

impl<'a> ImageSource<'a> {
    /// [`PanelSource::pack`] for a full strip inside output row `oy0` of a
    /// stride-1 convolution, from column `ox0`: tap by tap, a copy where the
    /// tap's NR pixels are inside the image and a clipped walk where they
    /// hang over a border. Any kernel size; under a 3x3 kernel only the two
    /// border strips of a row come here.
    #[inline(always)]
    fn pack_in_row<const NR: usize>(
        self,
        oy0: usize,
        ox0: usize,
        kb: usize,
        panel: &mut [[f32; NR]],
    ) {
        let (k, pad, pitch) = (self.geom.kernel, self.geom.pad, self.row_pitch);
        let (rows, cols) = self.visible;
        let mut tap = Tap::of_row(kb, k);
        for dst in panel {
            let plane = self.plane(tap.c);
            // Coordinates left of / above the image wrap to huge values and
            // fail the `< rows` / `< cols` tests like those on the far side.
            let iy = (oy0 + tap.ky).wrapping_sub(pad);
            let ix0 = (ox0 + tap.kx).wrapping_sub(pad);
            if iy < rows && ix0 < cols && ix0 + NR <= cols {
                dst.copy_from_slice(&plane[iy * pitch + ix0..][..NR]);
            } else {
                for (t, d) in dst.iter_mut().enumerate() {
                    let ix = ix0.wrapping_add(t);
                    *d = if iy < rows && ix < cols {
                        plane[iy * pitch + ix]
                    } else {
                        0.0
                    };
                }
            }
            tap.advance(k);
        }
    }

    /// [`ImageSource::pack_in_row`] specialised for a 3x3 kernel and a strip
    /// whose taps all stay inside the image's visible columns,
    /// `left..left + NR + 2` (`left` = the first output column less the
    /// padding): per `(c, ky)` group one bounds-checked window of NR + 2
    /// pixels and three copies out of it — or three zero fills, for a row
    /// above or below the visible rows — with no per-tap bookkeeping. A
    /// panel that starts or ends inside a group (`KC` is no multiple of 3)
    /// takes that group's remaining taps.
    #[inline(always)]
    fn pack_interior_3x3<const NR: usize>(
        self,
        oy0: usize,
        left: usize,
        kb: usize,
        panel: &mut [[f32; NR]],
    ) {
        let (rows, pitch, pad) = (self.visible.0, self.row_pitch, self.geom.pad);
        // The NR + 2 pixels of `plane` under kernel row `ky`, unless that
        // row of the window is above or below the visible rows.
        let window = |plane: &'a [f32], ky: usize| {
            let iy = (oy0 + ky).wrapping_sub(pad);
            (iy < rows).then(|| &plane[iy * pitch + left..][..NR + 2])
        };
        let plane = |c: usize| self.plane(c);
        // Rows from `first` of the column matrix one by one: the odd ends
        // of a panel that does not start or end with a channel.
        let some_rows = |first: usize, rows: &mut [[f32; NR]]| {
            for (row, dst) in (first..).zip(rows) {
                match window(plane(row / 9), row / 3 % 3) {
                    Some(window) => dst.copy_from_slice(&window[row % 3..][..NR]),
                    None => *dst = [0.0; NR],
                }
            }
        };
        let (head, rest) = panel.split_at_mut(((9 - kb % 9) % 9).min(panel.len()));
        let (channels, tail) = rest.as_chunks_mut::<9>();
        let c0 = (kb + head.len()) / 9;
        some_rows(kb, head);
        for (c, taps) in (c0..).zip(channels.iter_mut()) {
            let plane = plane(c);
            let (kernel_rows, _) = taps.as_chunks_mut::<3>();
            for (ky, [kx0, kx1, kx2]) in kernel_rows.iter_mut().enumerate() {
                match window(plane, ky) {
                    Some(window) => {
                        kx0.copy_from_slice(&window[..NR]);
                        kx1.copy_from_slice(&window[1..NR + 1]);
                        kx2.copy_from_slice(&window[2..]);
                    }
                    None => (*kx0, *kx1, *kx2) = ([0.0; NR], [0.0; NR], [0.0; NR]),
                }
            }
        }
        some_rows(9 * (c0 + channels.len()), tail);
    }
}

/// What happens to a finished sum on its way to memory.
trait Epilogue: Copy + Send {
    /// Maps the `NR` finished sums of output row `row`.
    fn apply<const NR: usize>(self, row: usize, sums: [f32; NR]) -> [f32; NR];
}

/// GEMM: the sum is the result.
#[derive(Clone, Copy)]
struct Plain;

impl Epilogue for Plain {
    #[inline(always)]
    fn apply<const NR: usize>(self, _: usize, sums: [f32; NR]) -> [f32; NR] {
        sums
    }
}

/// The per-output-channel tail of a convolution layer, applied as
/// [`conv2d`] stores each value: folded batch norm, then bias. The
/// activation follows.
#[derive(Debug, Clone, Copy)]
pub struct ChannelEpilogue<'a> {
    /// `(−mean, gamma / sqrt(var + eps))` per channel, for layers with
    /// batch normalisation: `v ← (v + −mean) · scale`.
    pub batch_norm: Option<(&'a [f32], &'a [f32])>,
    /// Added after batch norm: `v ← v + bias`.
    pub bias: &'a [f32],
}

/// Convolution: batch norm, bias and activation, in Darknet's order.
#[derive(Clone, Copy)]
struct Fused<'a, A> {
    channels: ChannelEpilogue<'a>,
    activation: A,
}

impl<A: Fn(f32) -> f32 + Copy + Send> Epilogue for Fused<'_, A> {
    #[inline(always)]
    fn apply<const NR: usize>(self, row: usize, sums: [f32; NR]) -> [f32; NR] {
        // Without batch norm the same arithmetic runs on its identities:
        // `v + -0.0` and `v * 1.0` return `v` for every `v`, either zero
        // included, so one branch-free vector path serves both layer kinds.
        let (neg_mean, scale) = match self.channels.batch_norm {
            Some((neg_mean, scale)) => (neg_mean[row], scale[row]),
            None => (-0.0, 1.0),
        };
        let bias = self.channels.bias[row];
        sums.map(|v| (self.activation)((v + neg_mean) * scale + bias))
    }
}

/// The output rows one share writes.
enum OutRows<'a> {
    /// The whole row-major output with row stride `ld`: a kernel that runs
    /// on one thread indexes it directly and builds no table.
    Whole { data: &'a mut [f32], ld: usize },
    /// One segment per output row, covering columns `col0..`; disjoint from
    /// every other share's segments.
    Segments {
        rows: Vec<&'a mut [f32]>,
        col0: usize,
    },
}

impl OutRows<'_> {
    #[inline(always)]
    fn tile_row(&mut self, row: usize, col: usize, len: usize) -> &mut [f32] {
        match self {
            OutRows::Whole { data, ld } => &mut data[row * *ld + col..][..len],
            OutRows::Segments { rows, col0 } => &mut rows[row][col - *col0..][..len],
        }
    }

    /// Calls `f(i, row)` for each row `i` of the `mv x nv` corner of the
    /// `MR x full` tile at `(i0, j0)`. A full tile takes a loop of constant
    /// shape (`full` is a constant wherever this is inlined), so a copy in
    /// `f` is one vector move per row instead of a `memcpy` call.
    #[inline(always)]
    fn tile_rows(
        &mut self,
        (i0, mv): (usize, usize),
        (j0, nv): (usize, usize),
        full: usize,
        mut f: impl FnMut(usize, &mut [f32]),
    ) {
        if mv == MR && nv == full {
            for i in 0..MR {
                f(i, self.tile_row(i0 + i, j0, full));
            }
        } else {
            for i in 0..mv {
                f(i, self.tile_row(i0 + i, j0, nv));
            }
        }
    }
}

/// A stack panel on a cache-line boundary: a 16-wide panel row then fills
/// one 64-byte line instead of straddling two, on store and on reload.
#[repr(align(64))]
struct Aligned<T>(T);

/// One thread's part of a product: every row, every `k`, the columns
/// `cols`, strip by strip from `cols.start`.
struct Share<'a, B, E> {
    product: Product<'a, B, E>,
    cols: Range<usize>,
    out: OutRows<'a>,
}

impl<B: PanelSource, E: Epilogue> Kernel for Share<'_, B, E> {
    #[inline(always)]
    fn run<const NR: usize, const FUSED: bool>(self) {
        let Share {
            product:
                Product {
                    a,
                    m,
                    n,
                    k,
                    b,
                    accumulate,
                    epilogue,
                },
            cols,
            mut out,
        } = self;
        debug_assert!(cols.end <= n);
        let mut panel = Aligned([[0.0f32; NR]; KC]);
        for j0 in cols.clone().step_by(NR) {
            let nv = NR.min(cols.end - j0);
            for kb in (0..k).step_by(KC) {
                let kc = KC.min(k - kb);
                let panel = &mut panel.0[..kc];
                b.pack(j0, nv, kb, panel);
                let from_zero = kb == 0 && !accumulate;
                let last = kb + kc == k;
                for i0 in (0..m).step_by(MR) {
                    let mv = MR.min(m - i0);
                    let a_block = &a[(i0 * k + kb * MR)..][..kc * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    if !from_zero {
                        out.tile_rows((i0, mv), (j0, nv), NR, |i, row| {
                            acc[i][..row.len()].copy_from_slice(row);
                        });
                    }
                    acc = microkernel::<NR, FUSED>(a_block, panel, acc);
                    if last {
                        // Every row of the tile, padding rows included (on
                        // the last real row's coefficients): a loop of
                        // constant shape stays in vector registers.
                        for (i, sums) in acc.iter_mut().enumerate() {
                            *sums = epilogue.apply((i0 + i).min(m - 1), *sums);
                        }
                    }
                    out.tile_rows((i0, mv), (j0, nv), NR, |i, row| {
                        row.copy_from_slice(&acc[i][..row.len()]);
                    });
                }
            }
        }
    }
}

/// A [`Share`] of a convolution whose 2x2 stride-2 max pool is taken in the
/// store. `product.n`, `cols` and `out` are in pooled coordinates — `cols`
/// covers whole pooled rows — while `product.b` is the convolution's own
/// column matrix, `2 x 2` times as large, every row of which fits one panel
/// (`k <= KC`): a sum that had to wait for the next `KC` block would have to
/// wait in the full-resolution output, and that is what no longer exists.
struct PooledShare<'a, E>(Share<'a, ImageSource<'a>, E>);

impl<E: Epilogue> Kernel for PooledShare<'_, E> {
    #[inline(always)]
    fn run<const NR: usize, const FUSED: bool>(self) {
        let Share {
            product: p,
            cols,
            mut out,
        } = self.0;
        let (a, m, k, b, epilogue) = (p.a, p.m, p.k, p.b, p.epilogue);
        let (ow, pw) = (b.out_width, b.out_width / 2);
        debug_assert!(k <= KC && ow == 2 * pw && cols.start % pw == 0 && cols.end % pw == 0);
        let (mut top, mut bottom) = (Aligned([[0.0f32; NR]; KC]), Aligned([[0.0f32; NR]; KC]));
        let (top, bottom) = (&mut top.0[..k], &mut bottom.0[..k]);
        for py in cols.start / pw..cols.end / pw {
            // The two convolution rows this pooled row is the maximum of,
            // strip by strip: `ow` and `NR` are even, so no window straddles
            // two strips. The last strip of a row moves left to be a whole
            // one where the row has room — the arithmetic of the part strip
            // it replaces, but whole strips pack and store faster; the
            // columns computed twice are stored twice, the same values.
            for ox0 in (0..ow).step_by(NR) {
                let ox0 = ox0.min(ow.saturating_sub(NR));
                let nv = NR.min(ow - ox0);
                b.pack(2 * py * ow + ox0, nv, 0, top);
                b.pack((2 * py + 1) * ow + ox0, nv, 0, bottom);
                for i0 in (0..m).step_by(MR) {
                    let mv = MR.min(m - i0);
                    let a_block = &a[i0 * k..][..k * MR];
                    let mut upper = microkernel::<NR, FUSED>(a_block, top, [[0.0f32; NR]; MR]);
                    let lower = microkernel::<NR, FUSED>(a_block, bottom, [[0.0f32; NR]; MR]);
                    for (i, (upper, lower)) in upper.iter_mut().zip(lower).enumerate() {
                        let row = (i0 + i).min(m - 1);
                        *upper =
                            pool_pairs(epilogue.apply(row, *upper), epilogue.apply(row, lower));
                    }
                    out.tile_rows((i0, mv), (py * pw + ox0 / 2, nv / 2), NR / 2, |i, row| {
                        row.copy_from_slice(&upper[i][..row.len()]);
                    });
                }
            }
        }
    }
}

/// 2x2 stride-2 max pooling of two finished rows of a tile: element `j` of
/// the result, for `j < NR / 2`, is the maximum of `upper[2j]`,
/// `upper[2j + 1]`, `lower[2j]`, `lower[2j + 1]` taken in that order by
/// `v > best` from −∞ — so NaN never wins and of two zeros the first does —
/// with a window in which nothing beat −∞ yielding `0.0`: the max-pooling
/// layer's own rule, to the bit. The other half is zero.
#[inline(always)]
fn pool_pairs<const NR: usize>(upper: [f32; NR], lower: [f32; NR]) -> [f32; NR] {
    let mut pooled = [0.0f32; NR];
    for (j, pooled) in pooled.iter_mut().take(NR / 2).enumerate() {
        let (left, right) = (2 * j, 2 * j + 1);
        let mut best = f32::NEG_INFINITY;
        for v in [upper[left], upper[right], lower[left], lower[right]] {
            if v > best {
                best = v;
            }
        }
        *pooled = if best == f32::NEG_INFINITY { 0.0 } else { best };
    }
    pooled
}

/// `acc[i][j] += a[p][i] * b[p][j]` for `p` ascending: the register tile,
/// and the only place the two rounding families differ. With `FUSED` each
/// step is one fused multiply-add, `fma(a, b, acc)`; without, a multiply and
/// an add, each rounded. `dispatch` sets `FUSED` only where the `fma`
/// feature is enabled: elsewhere `mul_add` is a library call per tap.
///
/// The accumulators are a local array of constant shape, so LLVM keeps them
/// in vector registers across the `p` loop. The column loop is written
/// *outside* the row loop on purpose: the row loop is then the one that is
/// fully unrolled first, and the loop left for the vectoriser runs along a
/// row of `acc` and of `b` (contiguous) with `a[i]` broadcast. Nested the
/// other way round, `opt-level = 2` vectorises down the columns and spends
/// the loop transposing the tile — 13x slower, same bits.
#[inline(always)]
fn microkernel<const NR: usize, const FUSED: bool>(
    a: &[f32],
    b: &[[f32; NR]],
    mut acc: [[f32; NR]; MR],
) -> [[f32; NR]; MR] {
    for (a, b) in a.chunks_exact(MR).zip(b) {
        for (j, &b) in b.iter().enumerate() {
            for (sums, &a) in acc.iter_mut().zip(a) {
                if FUSED {
                    sums[j] = a.mul_add(b, sums[j]);
                } else {
                    sums[j] += a * b;
                }
            }
        }
    }
    acc
}

/// A product minus its output buffer and its split: what [`run`] shares out.
#[derive(Clone, Copy)]
struct Product<'a, B, E> {
    /// Left operand as packed by [`pack_a`].
    a: &'a [f32],
    m: usize,
    n: usize,
    k: usize,
    b: B,
    /// Whether sums start from the values already in the output (GEMM after
    /// its `beta` pass) or from `+0.0` (the output holds garbage).
    accumulate: bool,
    epilogue: E,
}

/// A product and the row-major `m x n` buffer it is computed into.
type Job<'a, B, E> = (Product<'a, B, E>, &'a mut [f32]);

/// How many shares to cut each of `jobs` equal products into: `0` — run
/// them on the calling thread — when there is one worker or too little work
/// to be worth sharing, otherwise enough for
/// [`parallel::SHARES_PER_WORKER`].
fn auto_split(m: usize, n: usize, k: usize, jobs: usize) -> usize {
    let workers = parallel::worker_count();
    let macs = [n, k, jobs].iter().fold(m, |acc, &d| acc.saturating_mul(d));
    if workers <= 1 || jobs == 0 || macs < PAR_MIN_MACS {
        0
    } else {
        (parallel::SHARES_PER_WORKER * workers).div_ceil(jobs)
    }
}

/// Computes every job, each share as the kernel `kernel` makes of it. With
/// `split == 0` on the calling thread, indexing each output directly — no
/// allocation, which is what keeps a warm single-worker forward pass
/// allocation-free. Otherwise each job's columns are cut at multiples of
/// `grain` (the tile width; a whole output row for a kernel that needs
/// them) into `split` nearly equal shares and the workers — the calling
/// thread and the kernel pool's helpers — take shares off one queue until it
/// is empty ([`parallel::for_each`]), so a helper that joins late or is
/// descheduled delays nobody: the others simply take more.
fn run<'a, B, E, K>(
    jobs: impl Iterator<Item = Job<'a, B, E>>,
    split: usize,
    grain: usize,
    kernel: impl Fn(Share<'a, B, E>) -> K,
) where
    B: PanelSource + 'a,
    E: Epilogue + 'a,
    K: Kernel + Send,
{
    let mut work = Vec::new();
    for (product, out) in jobs {
        let n = product.n;
        if split == 0 {
            dispatch::run(kernel(Share {
                product,
                cols: 0..n,
                out: OutRows::Whole { data: out, ld: n },
            }));
            continue;
        }
        let shares: Vec<Range<usize>> = parallel::split_ranges(n.div_ceil(grain), split)
            .into_iter()
            .map(|grains| grains.start * grain..(grains.end * grain).min(n))
            .collect();
        let mut tables: Vec<Vec<&mut [f32]>> = shares
            .iter()
            .map(|_| Vec::with_capacity(product.m))
            .collect();
        for row in out.chunks_exact_mut(n) {
            let mut rest = row;
            for (table, cols) in tables.iter_mut().zip(&shares) {
                let (segment, tail) = rest.split_at_mut(cols.len());
                table.push(segment);
                rest = tail;
            }
        }
        work.extend(shares.into_iter().zip(tables).map(|(cols, rows)| {
            kernel(Share {
                product,
                out: OutRows::Segments {
                    rows,
                    col0: cols.start,
                },
                cols,
            })
        }));
    }
    parallel::for_each(work, dispatch::run);
}

/// `C = alpha * A * B + beta * C` over strided operands: element `(i, p)`
/// of the `m x k` matrix `A` is `a[i * a_rs + p * a_cs]`, element `(p, j)`
/// of the `k x n` matrix `B` is `b[p * b_rs + j * b_cs]`, and `c` is
/// row-major `m x n`. Transposes are strides, never copies.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS sgemm signature
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: (&[f32], usize, usize),
    b: (&[f32], usize, usize),
    beta: f32,
    c: &mut [f32],
) {
    gemm_split(m, n, k, alpha, a, b, beta, c, auto_split(m, n, k, 1));
}

/// [`gemm`] with the split spelled out (see [`run`]).
#[allow(clippy::too_many_arguments)]
fn gemm_split(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    (a, a_rs, a_cs): (&[f32], usize, usize),
    (b, b_rs, b_cs): (&[f32], usize, usize),
    beta: f32,
    c: &mut [f32],
    split: usize,
) {
    let multiplies = k != 0 && alpha != 0.0 && !c.is_empty();
    if beta == 0.0 {
        // With a product to come the sums start from +0.0 in registers and
        // the store assigns, so garbage in `c` (NaN included) is never read.
        if !multiplies {
            c.fill(0.0);
        }
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    if !multiplies {
        return;
    }
    let packed = pack_a(a, m, k, a_rs, a_cs, alpha);
    let product = Product {
        a: &packed,
        m,
        n,
        k,
        b: MatrixSource {
            data: b,
            rs: b_rs,
            cs: b_cs,
        },
        accumulate: beta != 0.0,
        epilogue: Plain,
    };
    run(
        std::iter::once((product, c)),
        split,
        dispatch::tile_width(),
        |share| share,
    );
}

/// A batch of images through one convolution layer, column matrix never
/// built: `out[b][oc][oy*ow + ox] = activation(channels(Σ weights[oc][c,ky,kx]
/// · input[b][c][oy*s + ky − pad][ox*s + kx − pad]))`, to the bit as stated
/// in the [module docs](self).
///
/// `input` is one `[c, h, w]` view per batch item, read where it lies
/// ([`Views`]), `weights` the packed `[out_c, c*k*k]` matrix, `out` the
/// `[batch, out_c, oh, ow]` output; every element of `out` is assigned, so
/// it may hold stale data on entry. The batch size is whatever `out` has
/// room for.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for invalid geometry or views
/// and [`TensorError::ShapeMismatch`] / [`TensorError::LengthMismatch`] when
/// a buffer disagrees with the geometry.
pub fn conv2d<A>(
    input: Views<'_>,
    geom: &ConvGeometry,
    weights: &PackedMatrix,
    channels: ChannelEpilogue<'_>,
    activation: A,
    out: &mut [f32],
) -> Result<()>
where
    A: Fn(f32) -> f32 + Copy + Send,
{
    conv2d_split(input, geom, weights, channels, activation, out, None, false)
}

/// [`conv2d`] and the 2x2 stride-2 max pool behind it (windows aligned at
/// 0, as Darknet's downsampling pool has them) in one pass: `out` is the
/// pooling layer's `[batch, out_c, oh / 2, ow / 2]` output, each element the
/// maximum — taken the way the pooling layer takes it, see the
/// [module docs](self) — of four values computed exactly as [`conv2d`]
/// computes them and never written anywhere. The full-resolution
/// activation does not exist.
///
/// Only for a layer [`pools_in_store`] takes; for any other the caller runs
/// [`conv2d`] and the pool one after the other, for the same bits.
///
/// # Errors
///
/// Those of [`conv2d`], and [`TensorError::InvalidArgument`] for a layer
/// [`pools_in_store`] does not take.
pub fn conv2d_pooled<A>(
    input: Views<'_>,
    geom: &ConvGeometry,
    weights: &PackedMatrix,
    channels: ChannelEpilogue<'_>,
    activation: A,
    out: &mut [f32],
) -> Result<()>
where
    A: Fn(f32) -> f32 + Copy + Send,
{
    geom.validate()?;
    if !pools_in_store(geom, weights.rows) {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_pooled",
            msg: format!("no pooled store for {} filters over {geom:?}", weights.rows),
        });
    }
    conv2d_split(input, geom, weights, channels, activation, out, None, true)
}

/// Whether [`conv2d_pooled`] takes a convolution of `out_channels` filters
/// over the valid geometry `geom`: a stride-1 convolution of even output
/// height and width whose `c * k * k` taps fit one panel, 1x1 unpadded ones
/// excepted (their rows are not kept apart), from the size at which not
/// writing the activation is a gain.
pub fn pools_in_store(geom: &ConvGeometry, out_channels: usize) -> bool {
    pool_fits_the_store(geom) && out_channels * geom.col_cols() >= POOL_IN_STORE_MIN_OUTPUTS
}

/// Whether [`PooledShare`] can compute the (valid) convolution `geom`: whole
/// 2x2 windows, each row of a strip from one output row, every sum finished
/// within one panel.
fn pool_fits_the_store(geom: &ConvGeometry) -> bool {
    geom.stride == 1
        && !flattens(geom)
        && geom.col_rows() <= KC
        && geom.out_height().is_multiple_of(2)
        && geom.out_width().is_multiple_of(2)
}

/// [`conv2d`] with the split spelled out (see [`run`]; `None`: as the work
/// warrants), `pooled` as [`conv2d_pooled`] computes it, whatever the
/// layer's size.
#[allow(clippy::too_many_arguments)]
fn conv2d_split<A>(
    input: Views<'_>,
    geom: &ConvGeometry,
    weights: &PackedMatrix,
    channels: ChannelEpilogue<'_>,
    activation: A,
    out: &mut [f32],
    split: Option<usize>,
    pooled: bool,
) -> Result<()>
where
    A: Fn(f32) -> f32 + Copy + Send,
{
    geom.validate()?;
    debug_assert!(!pooled || pool_fits_the_store(geom));
    let (m, k) = (weights.rows, geom.col_rows());
    // Columns stored per output channel: one per 2x2 window when pooled.
    let n = geom.col_cols() / if pooled { 4 } else { 1 };
    let plane = geom.height * geom.width;
    if plane == 0 || m == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            msg: format!(
                "{m} output channels over a {}x{} image",
                geom.height, geom.width
            ),
        });
    }
    // A valid geometry has at least one output pixel, so `m * n >= 1`.
    let batch = out.len() / (m * n);
    let images = Shape::nchw(batch, geom.channels, geom.height, geom.width);
    let shape = input.shape()?;
    for (op, expected, actual) in [
        ("conv2d output", &[batch * m * n][..], &[out.len()][..]),
        ("conv2d input", images.dims(), shape.dims()),
        ("conv2d weights", &[k], &[weights.cols]),
    ] {
        if expected != actual {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: expected.to_vec(),
                rhs: actual.to_vec(),
            });
        }
    }
    let (neg_mean, scale) = channels
        .batch_norm
        .unwrap_or((channels.bias, channels.bias));
    for per_channel in [neg_mean, scale, channels.bias] {
        if per_channel.len() != m {
            return Err(TensorError::LengthMismatch {
                expected: m,
                actual: per_channel.len(),
            });
        }
    }
    let jobs = out.chunks_exact_mut(m * n).enumerate().map(|(i, out)| {
        let product = Product {
            a: &weights.panels[..],
            m,
            n,
            k,
            b: input.source(i, geom),
            accumulate: false,
            epilogue: Fused {
                channels,
                activation,
            },
        };
        (product, out)
    });
    let split = split.unwrap_or_else(|| auto_split(m, geom.col_cols(), k, batch));
    match pooled {
        true => run(jobs, split, geom.out_width() / 2, PooledShare),
        false => run(jobs, split, dispatch::tile_width(), |share| share),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, ops};
    use rand::SeedableRng;
    use Instantiation::{Avx2, Avx512};

    /// The widest register tile any instantiation uses: sizes built from it
    /// are multiples of, or just off, every tile width.
    const NR: usize = 16;

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        init::uniform(Shape::new(&[len]), -1.0, 1.0, &mut rng).into_vec()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn geometry(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            channels: c,
            height: h,
            width: w,
            kernel: k,
            stride: s,
            pad: p,
        }
    }

    /// `data` as a dense batch of `geom`'s `[c, h, w]` images.
    fn batch_of(data: &[f32], geom: &ConvGeometry) -> Tensor {
        let (c, h, w) = (geom.channels, geom.height, geom.width);
        let shape = Shape::nchw(data.len() / (c * h * w), c, h, w);
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    /// The contract, spelled out the slow way in `rounding`'s family:
    /// `c ← beta·c`, then `c ← madd(c, alpha·a_ik, b_kj)` for `k` ascending.
    #[allow(clippy::too_many_arguments)] // mirrors `gemm`
    fn naive_gemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
        rounding: Rounding,
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut sum = match beta {
                    0.0 => 0.0,
                    1.0 => c[i * n + j],
                    _ => beta * c[i * n + j],
                };
                for p in 0..k {
                    sum = rounding.madd(sum, alpha * a[i * k + p], b[p * n + j]);
                }
                c[i * n + j] = sum;
            }
        }
    }

    /// The convolution contract the slow way in `rounding`'s family: the
    /// sum over `(c, ky, kx)` ascending from +0.0 (padding taps add `w·0`),
    /// then batch norm, bias and activation as separately rounded steps.
    fn naive_conv(
        input: &[f32],
        geom: &ConvGeometry,
        weights: &[f32],
        channels: ChannelEpilogue<'_>,
        activation: impl Fn(f32) -> f32,
        rounding: Rounding,
    ) -> Vec<f32> {
        let (oh, ow, kk) = (geom.out_height(), geom.out_width(), geom.col_rows());
        let m = weights.len() / kk;
        let item = geom.channels * geom.height * geom.width;
        let mut out = Vec::new();
        for image in input.chunks_exact(item) {
            for oc in 0..m {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut sum = 0.0f32;
                        for c in 0..geom.channels {
                            for ky in 0..geom.kernel {
                                for kx in 0..geom.kernel {
                                    let iy = (oy * geom.stride + ky).wrapping_sub(geom.pad);
                                    let ix = (ox * geom.stride + kx).wrapping_sub(geom.pad);
                                    let x = if iy < geom.height && ix < geom.width {
                                        image[(c * geom.height + iy) * geom.width + ix]
                                    } else {
                                        0.0
                                    };
                                    let tap = (c * geom.kernel + ky) * geom.kernel + kx;
                                    sum = rounding.madd(sum, weights[oc * kk + tap], x);
                                }
                            }
                        }
                        if let Some((neg_mean, scale)) = channels.batch_norm {
                            sum += neg_mean[oc];
                            sum *= scale[oc];
                        }
                        sum += channels.bias[oc];
                        out.push(activation(sum));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pack_a_lays_out_scaled_panels_and_zero_pads_the_last() {
        let (m, k) = (MR + 2, 3);
        let a: Vec<f32> = (0..m * k).map(|v| v as f32).collect();
        let packed = pack_a(&a, m, k, k, 1, 2.0);
        assert_eq!(packed.len(), 2 * k * MR);
        for i in 0..2 * MR {
            for p in 0..k {
                let want = if i < m { 2.0 * a[i * k + p] } else { 0.0 };
                assert_eq!(packed[(i / MR * k + p) * MR + i % MR], want, "({i}, {p})");
            }
        }
        // A transposed operand is the same matrix through other strides.
        let mut at = vec![0.0; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        assert_eq!(pack_a(&at, m, k, 1, m, 2.0), packed);
    }

    /// `k` crosses two `KC` boundaries, `m` and `n` are multiples of neither
    /// tile side, and the strips are shared out every which way: the bits
    /// never move, and they are the naive loop's.
    #[test]
    fn gemm_bits_do_not_depend_on_the_split() {
        let (m, n, k) = (2 * MR + 3, 5 * NR + 5, 2 * KC + 44);
        let (a, b, c0) = (random(m * k, 1), random(k * n, 2), random(m * n, 3));
        for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (0.7, 0.3)] {
            let mut want = c0.clone();
            naive_gemm(m, n, k, alpha, &a, &b, beta, &mut want, rounding());
            for split in [0, 1, 2, 3, 7] {
                let mut c = c0.clone();
                gemm_split(m, n, k, alpha, (&a, k, 1), (&b, n, 1), beta, &mut c, split);
                assert_eq!(
                    bits(&c),
                    bits(&want),
                    "alpha={alpha} beta={beta} split={split}"
                );
            }
        }
    }

    fn conv_cases() -> Vec<(ConvGeometry, usize)> {
        vec![
            (geometry(3, 9, 21, 3, 1, 1), MR), // DroNet's shape: strips inside rows, borders
            (geometry(2, 7, 5, 3, 1, 1), MR + 3), // every strip crosses a row
            (geometry(5, 6, 7, 1, 1, 0), 3),   // 1x1: the activation is the operand
            (geometry(3, 11, 8, 3, 2, 1), 2 * MR), // stride 2
            (geometry(2, 10, 13, 5, 1, 2), 5), // 5x5
            (geometry(2, 6, 9, 2, 2, 0), 4),   // even kernel, no padding
            (geometry(40, 5, 6, 3, 1, 1), 9),  // K = 360 crosses a KC boundary
            // 3x3 strips from column 0 to column `ow` with interior ones in
            // between, and a second panel that starts inside a `(c, ky)`
            // group: K = 270, and KC is no multiple of 3.
            (geometry(30, 4, 48, 3, 1, 1), MR),
            (geometry(2, 5, 20, 3, 1, 2), 3), // 3x3 wider than "same": 22 columns out of 20
        ]
    }

    #[test]
    fn conv_bits_do_not_depend_on_the_split() {
        for (case, (geom, m)) in conv_cases().into_iter().enumerate() {
            let batch = 1 + case % 3;
            let k = geom.col_rows();
            let seed = 10 * case as u64;
            let input = random(batch * geom.channels * geom.height * geom.width, seed);
            let weights = random(m * k, seed + 1);
            let (neg_mean, scale, bias) = (
                random(m, seed + 2),
                random(m, seed + 3),
                random(m, seed + 4),
            );
            let channels = ChannelEpilogue {
                batch_norm: (case % 2 == 0).then_some((&neg_mean[..], &scale[..])),
                bias: &bias,
            };
            let want = naive_conv(
                &input,
                &geom,
                &weights,
                channels,
                ops::leaky_relu,
                rounding(),
            );
            let packed = PackedMatrix::pack(&weights, m, k).unwrap();
            let images = batch_of(&input, &geom);
            for split in [None, Some(0), Some(1), Some(2), Some(3), Some(7)] {
                let mut out = vec![f32::NAN; want.len()];
                conv2d_split(
                    Views::Batch(&images),
                    &geom,
                    &packed,
                    channels,
                    ops::leaky_relu,
                    &mut out,
                    split,
                    false,
                )
                .unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&want),
                    "{geom:?} m={m} batch={batch} split={split:?}"
                );
            }
        }
    }

    /// Every way this machine can run a share, called directly — `run`
    /// only ever picks the widest instruction set, so this is the only place
    /// the others execute on an AVX-512 machine: both tile widths compiled
    /// for the baseline target, then each `dispatch` wrapper. The first two
    /// round separately, the wrappers fused.
    #[derive(Debug, Clone, Copy)]
    enum Instantiation {
        Portable8,
        Portable16,
        Avx2,
        Avx512,
    }

    impl Instantiation {
        const ALL: [Self; 4] = [Self::Portable8, Self::Portable16, Self::Avx2, Self::Avx512];

        /// Hands the kernel back when the CPU lacks the instruction set.
        fn run<K: Kernel>(self, kernel: K) -> std::result::Result<(), K> {
            match self {
                Self::Portable8 => kernel.run::<8, false>(),
                Self::Portable16 => kernel.run::<16, false>(),
                Self::Avx2 => return dispatch::run_avx2(kernel),
                Self::Avx512 => return dispatch::run_avx512(kernel),
            }
            Ok(())
        }

        /// The rounding family the instantiation belongs to.
        fn rounding(self) -> Rounding {
            match self {
                Self::Portable8 | Self::Portable16 => Rounding::Separate,
                Self::Avx2 | Self::Avx512 => Rounding::Fused,
            }
        }
    }

    /// Computes `product` into a copy of `c0` once per instantiation and
    /// per split — the columns cut into that many shares at multiples of
    /// `grain`, each handed to `run` with the instantiation to run it in
    /// (`false`: the CPU lacks it) — and compares each result on bits with
    /// `want` of the instantiation's rounding family.
    fn every_instantiation_computes<B: PanelSource, E: Epilogue>(
        product: Product<'_, B, E>,
        grain: usize,
        run: impl Fn(Instantiation, Share<'_, B, E>) -> bool,
        c0: &[f32],
        want: impl Fn(Rounding) -> Vec<f32>,
        case: &str,
    ) {
        let n = product.n;
        let [separate, fused] = [Rounding::Separate, Rounding::Fused].map(want);
        for instantiation in Instantiation::ALL {
            let want = match instantiation.rounding() {
                Rounding::Separate => &separate,
                Rounding::Fused => &fused,
            };
            for split in [0, 1, 2, 3, 7] {
                let mut c = c0.to_vec();
                let shares: Vec<Range<usize>> = match split {
                    0 => std::iter::once(0..n).collect(),
                    _ => parallel::split_ranges(n.div_ceil(grain), split)
                        .into_iter()
                        .map(|grains| grains.start * grain..(grains.end * grain).min(n))
                        .collect(),
                };
                let ran = shares.into_iter().all(|cols| {
                    let out = OutRows::Whole {
                        data: &mut c,
                        ld: n,
                    };
                    run(instantiation, Share { product, cols, out })
                });
                // An instruction set the CPU lacks is skipped, not failed.
                if !ran {
                    eprintln!("no {instantiation:?} on this machine: skipped");
                    break;
                }
                assert_eq!(
                    bits(&c),
                    bits(want),
                    "{case}: {instantiation:?}, split {split}"
                );
            }
        }
    }

    /// A share as it is, for [`every_instantiation_computes`]. Callers cut at
    /// multiples of 8, so the 16-wide tile also starts off its own grid.
    fn plainly<B: PanelSource, E: Epilogue>(
        instantiation: Instantiation,
        share: Share<'_, B, E>,
    ) -> bool {
        instantiation.run(share).is_ok()
    }

    /// All four transposes as strides, four `alpha`/`beta` pairs, `k` across
    /// a `KC` boundary, `n` a 16-wide tile short of full.
    #[test]
    fn every_instantiation_computes_the_naive_gemm_bits() {
        let (m, n, k) = (MR + 5, 3 * NR + 9, KC + 9);
        let (a, b, c0) = (random(m * k, 1), random(k * n, 2), random(m * n, 3));
        let transposed = |x: &[f32], rows: usize, cols: usize| {
            let mut t = vec![0.0; x.len()];
            for (i, row) in x.chunks_exact(cols).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    t[j * rows + i] = v;
                }
            }
            t
        };
        let (at, bt) = (transposed(&a, m, k), transposed(&b, k, n));
        for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (0.7, 0.3), (-2.0, 0.0)] {
            let want = |rounding| {
                let mut want = c0.clone();
                naive_gemm(m, n, k, alpha, &a, &b, beta, &mut want, rounding);
                want
            };
            // What `gemm_split` does ahead of the product.
            let scaled: Vec<f32> = match beta {
                0.0 => vec![f32::NAN; m * n],
                _ => c0.iter().map(|v| v * beta).collect(),
            };
            for (a, a_rs, a_cs) in [(&a, k, 1), (&at, 1, m)] {
                let packed = pack_a(a, m, k, a_rs, a_cs, alpha);
                for (b, b_rs, b_cs) in [(&b, n, 1), (&bt, 1, k)] {
                    let product = Product {
                        a: &packed,
                        m,
                        n,
                        k,
                        b: MatrixSource {
                            data: b,
                            rs: b_rs,
                            cs: b_cs,
                        },
                        accumulate: beta != 0.0,
                        epilogue: Plain,
                    };
                    let case = format!("alpha={alpha} beta={beta} a_cs={a_cs} b_cs={b_cs}");
                    every_instantiation_computes(product, 8, plainly, &scaled, want, &case);
                }
            }
        }
    }

    /// Every activation, batch norm on and off, over [`conv_cases`] and the
    /// edges a 16-wide strip adds to them.
    #[test]
    fn every_instantiation_computes_the_naive_conv_bits() {
        let mut cases = conv_cases();
        cases.extend([
            (geometry(3, 11, 11, 3, 1, 1), 2 * MR), // n = 121: 7 strips of 16 + 9, rows of 11
            (geometry(2, 3, 4, 3, 1, 1), MR),       // n = 12 < 16
            (geometry(2, 9, 13, 3, 1, 1), 3),       // odd width: strips cross rows mid-tile
            (geometry(2, 9, 13, 3, 1, 0), 3),       // ... and the output is narrower than the input
            (geometry(3, 13, 21, 3, 2, 1), MR + 1), // stride 2, odd output width 11
            (geometry(6, 11, 11, 1, 1, 0), MR),     // 1x1: one flat row of 121
        ]);
        for (case, (geom, m)) in cases.into_iter().enumerate() {
            let (k, n) = (geom.col_rows(), geom.col_cols());
            let seed = 100 + 10 * case as u64;
            let image = random(geom.channels * geom.height * geom.width, seed);
            let weights = random(m * k, seed + 1);
            let packed = pack_a(&weights, m, k, k, 1, 1.0);
            let (neg_mean, scale, bias) = (
                random(m, seed + 2),
                random(m, seed + 3),
                random(m, seed + 4),
            );
            for batch_norm in [None, Some((&neg_mean[..], &scale[..]))] {
                let channels = ChannelEpilogue {
                    batch_norm,
                    bias: &bias,
                };
                for (name, activation) in ACTIVATIONS {
                    let product = Product {
                        a: &packed,
                        m,
                        n,
                        k,
                        b: ImageSource::dense(&image, &geom),
                        accumulate: false,
                        epilogue: Fused {
                            channels,
                            activation,
                        },
                    };
                    let want = |r| naive_conv(&image, &geom, &weights, channels, activation, r);
                    let case = format!("{geom:?} m={m} bn={} {name}", batch_norm.is_some());
                    let garbage = vec![f32::NAN; m * n];
                    every_instantiation_computes(product, 8, plainly, &garbage, want, &case);
                }
            }
        }
    }

    /// The max-pooling layer's contract the slow way, for `planes` planes of
    /// `oh x ow`: per aligned 2x2 window, `v > best` from −∞ over top-left,
    /// top-right, bottom-left, bottom-right, and 0.0 when nothing won.
    fn naive_pool(full: &[f32], oh: usize, ow: usize) -> Vec<f32> {
        let mut out = Vec::new();
        for plane in full.chunks_exact(oh * ow) {
            for py in 0..oh / 2 {
                for px in 0..ow / 2 {
                    let mut best = f32::NEG_INFINITY;
                    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let v = plane[(2 * py + dy) * ow + 2 * px + dx];
                        if v > best {
                            best = v;
                        }
                    }
                    out.push(if best == f32::NEG_INFINITY { 0.0 } else { best });
                }
            }
        }
        out
    }

    /// Layers the pooled store takes, whatever their size: `m` off the tile
    /// height, output widths off both tile widths (one strip and a part, a
    /// part only), a 5x5 kernel, unpadded 3x3 and 2x2 ones, `K` just under
    /// and exactly `KC`.
    fn pooled_cases() -> Vec<(ConvGeometry, usize)> {
        vec![
            (geometry(3, 8, 12, 3, 1, 1), MR + 3),
            (geometry(2, 6, 22, 3, 1, 1), 5),
            (geometry(4, 4, 44, 3, 1, 1), 2 * MR),
            (geometry(2, 10, 14, 5, 1, 2), 3),
            (geometry(2, 6, 38, 3, 1, 0), MR + 1), // 4 x 36 out of 6 x 38
            (geometry(28, 4, 6, 3, 1, 1), 9),      // K = 252
            (geometry(64, 5, 9, 2, 1, 0), 4),      // K = 256, 4 x 8 out
        ]
    }

    /// Inputs, weights as they are and packed, and per-channel coefficients
    /// of a case.
    struct Layer {
        input: Tensor,
        weights: Vec<f32>,
        packed: PackedMatrix,
        neg_mean: Vec<f32>,
        scale: Vec<f32>,
        bias: Vec<f32>,
    }

    impl Layer {
        fn random(geom: &ConvGeometry, m: usize, batch: usize, seed: u64) -> Layer {
            let k = geom.col_rows();
            let weights = random(m * k, seed + 1);
            Layer {
                input: batch_of(
                    &random(batch * geom.channels * geom.height * geom.width, seed),
                    geom,
                ),
                packed: PackedMatrix::pack(&weights, m, k).unwrap(),
                weights,
                neg_mean: random(m, seed + 2),
                scale: random(m, seed + 3),
                bias: random(m, seed + 4),
            }
        }

        fn channels(&self, batch_norm: bool) -> ChannelEpilogue<'_> {
            ChannelEpilogue {
                batch_norm: batch_norm.then_some((&self.neg_mean[..], &self.scale[..])),
                bias: &self.bias,
            }
        }

        /// [`naive_conv`] over `input`, a batch of this layer's images —
        /// then [`naive_pool`] if `pooled`.
        fn naive(
            &self,
            input: &Tensor,
            geom: &ConvGeometry,
            batch_norm: bool,
            activation: Activation,
            pooled: bool,
            rounding: Rounding,
        ) -> Vec<f32> {
            let channels = self.channels(batch_norm);
            let full = naive_conv(
                input.as_slice(),
                geom,
                &self.weights,
                channels,
                activation,
                rounding,
            );
            match pooled {
                true => naive_pool(&full, geom.out_height(), geom.out_width()),
                false => full,
            }
        }
    }

    type Activation = fn(f32) -> f32;
    const ACTIVATIONS: [(&str, Activation); 4] = [
        ("linear", |v| v),
        ("leaky", ops::leaky_relu),
        ("relu", |v| v.max(0.0)),
        ("logistic", ops::sigmoid),
    ];

    /// Turns sums into everything a window can hold besides ordinary
    /// numbers: NaN, −∞, either zero.
    fn awkward(v: f32) -> f32 {
        match v {
            v if v > 0.6 => f32::NAN,
            v if v > 0.3 => -0.0,
            v if v > 0.0 => 0.0,
            v if v > -0.4 => f32::NEG_INFINITY,
            v => v,
        }
    }

    /// The pooled store against [`conv2d`] followed by [`naive_pool`], on
    /// bits: batches of 1 to 3 through `run` with every split, batch norm on
    /// and off, every activation — [`awkward`] among them, which fills the
    /// windows with NaN, −∞ and zeros of both signs, whole windows too.
    #[test]
    fn pooled_conv_is_conv_then_pool_whatever_the_split() {
        let mut activations = ACTIVATIONS.to_vec();
        activations.push(("awkward", awkward));
        for (case, (geom, m)) in pooled_cases().into_iter().enumerate() {
            let batch = 1 + case % 3;
            let layer = Layer::random(&geom, m, batch, 300 + 10 * case as u64);
            let (oh, ow) = (geom.out_height(), geom.out_width());
            for batch_norm in [false, true] {
                let channels = layer.channels(batch_norm);
                for &(name, activation) in &activations {
                    let mut full = vec![f32::NAN; batch * m * oh * ow];
                    conv2d(
                        Views::Batch(&layer.input),
                        &geom,
                        &layer.packed,
                        channels,
                        activation,
                        &mut full,
                    )
                    .unwrap();
                    let want = naive_pool(&full, oh, ow);
                    for split in [None, Some(0), Some(1), Some(2), Some(3), Some(7)] {
                        let mut out = vec![f32::NAN; want.len()];
                        conv2d_split(
                            Views::Batch(&layer.input),
                            &geom,
                            &layer.packed,
                            channels,
                            activation,
                            &mut out,
                            split,
                            true,
                        )
                        .unwrap();
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "{geom:?} m={m} batch={batch} bn={batch_norm} {name} split={split:?}"
                        );
                    }
                    if name == "awkward" {
                        // The case does hold what it is there for.
                        for special in [f32::NAN, f32::NEG_INFINITY, 0.0, -0.0] {
                            let bits = special.to_bits();
                            assert!(full.iter().any(|v| v.to_bits() == bits), "no {special}");
                        }
                        assert!(want.iter().all(|v| !v.is_nan() && *v != f32::NEG_INFINITY));
                    }
                }
            }
        }
    }

    /// The same over every instantiation, shares cut at pooled rows, against
    /// the naive convolution of the instantiation's family then the pool.
    #[test]
    fn every_instantiation_pools_in_the_store_the_bits_of_conv_then_pool() {
        let mut activations = ACTIVATIONS.to_vec();
        activations.push(("awkward", awkward));
        for (case, (geom, m)) in pooled_cases().into_iter().enumerate() {
            let layer = Layer::random(&geom, m, 1, 400 + 10 * case as u64);
            let (oh, ow) = (geom.out_height(), geom.out_width());
            for batch_norm in [false, true] {
                let channels = layer.channels(batch_norm);
                for &(name, activation) in &activations {
                    let n = (oh / 2) * (ow / 2);
                    let product = Product {
                        a: &layer.packed.panels[..],
                        m,
                        n,
                        k: geom.col_rows(),
                        b: ImageSource::dense(layer.input.as_slice(), &geom),
                        accumulate: false,
                        epilogue: Fused {
                            channels,
                            activation,
                        },
                    };
                    let case = format!("{geom:?} m={m} bn={batch_norm} {name}");
                    let garbage = vec![f32::NAN; m * n];
                    every_instantiation_computes(
                        product,
                        ow / 2,
                        |instantiation, share| instantiation.run(PooledShare(share)).is_ok(),
                        &garbage,
                        |r| layer.naive(&layer.input, &geom, batch_norm, activation, true, r),
                        &case,
                    );
                }
            }
        }
    }

    /// What [`pools_in_store`] takes and what it leaves to two passes —
    /// every layer here but the last is large enough, so each other refusal
    /// is the geometry's — and [`conv2d_pooled`] computes exactly what it
    /// takes.
    #[test]
    fn pools_in_store_says_what_conv2d_pooled_takes() {
        let m = MR;
        for (geom, taken, why) in [
            (geometry(2, 176, 176, 3, 1, 1), true, "conv2's shape"),
            (geometry(2, 352, 352, 3, 2, 1), false, "stride 2"),
            (geometry(2, 177, 176, 3, 1, 1), false, "odd output height"),
            (geometry(2, 176, 177, 3, 1, 1), false, "odd output width"),
            (geometry(29, 176, 176, 3, 1, 1), false, "K = 261 > KC"),
            (
                geometry(3, 176, 176, 1, 1, 0),
                false,
                "1x1 unpadded: flattened",
            ),
            (geometry(2, 88, 88, 3, 1, 1), false, "too small to pay"),
        ] {
            assert!(m * geom.col_cols() >= POOL_IN_STORE_MIN_OUTPUTS || why == "too small to pay");
            assert_eq!(pools_in_store(&geom, m), taken, "{why}");
            let layer = Layer::random(&geom, m, 1, 7);
            let channels = layer.channels(true);
            let (oh, ow) = (geom.out_height(), geom.out_width());
            let mut out = vec![f32::NAN; m * (oh / 2) * (ow / 2)];
            let pooled = conv2d_pooled(
                Views::Batch(&layer.input),
                &geom,
                &layer.packed,
                channels,
                ops::leaky_relu,
                &mut out,
            );
            if !taken {
                assert!(
                    matches!(pooled, Err(TensorError::InvalidArgument { .. })),
                    "{why}"
                );
                continue;
            }
            pooled.unwrap();
            let mut full = vec![f32::NAN; m * oh * ow];
            conv2d(
                Views::Batch(&layer.input),
                &geom,
                &layer.packed,
                channels,
                ops::leaky_relu,
                &mut full,
            )
            .unwrap();
            assert_eq!(bits(&out), bits(&naive_pool(&full, oh, ow)), "{why}");
        }
        // Like `conv2d`, it reports buffers that disagree with the geometry.
        let geom = geometry(2, 176, 176, 3, 1, 1);
        let layer = Layer::random(&geom, m, 1, 7);
        let mut short = vec![0.0; m * 88 * 88 - 1];
        assert!(conv2d_pooled(
            Views::Batch(&layer.input),
            &geom,
            &layer.packed,
            layer.channels(false),
            ops::leaky_relu,
            &mut short,
        )
        .is_err());
    }

    /// The speed-up of the AVX-512F instantiation and its 8x16 tile, locked
    /// as a ratio on the same machine in the same run: single-threaded on
    /// the shapes of DroNet-352's conv5 and conv6 it is at least 1.15x the
    /// AVX2 instantiation (measured 1.3-1.4x on a quiet machine). Best-of
    /// times, the two interleaved so drift hits both alike, for at least
    /// seven rounds and on until the bar is cleared or sixty have run.
    ///
    /// Asserted in optimised builds only: under the dev profile
    /// (`opt-level = 2`) parts of the 16-wide pack and store stay scalar and
    /// the ratio is 1.0-1.2x; it is printed all the same.
    #[test]
    fn avx512_instantiation_outruns_avx2_on_dronet_shapes() {
        for (name, geom, m) in [
            ("conv5", geometry(32, 22, 22, 3, 1, 1), 64),
            ("conv6", geometry(64, 11, 11, 3, 1, 1), 128),
        ] {
            let (k, n) = (geom.col_rows(), geom.col_cols());
            let image = random(geom.channels * geom.height * geom.width, 1);
            let packed = pack_a(&random(m * k, 2), m, k, k, 1, 1.0);
            let (neg_mean, scale, bias) = (random(m, 3), random(m, 4), random(m, 5));
            let product = Product {
                a: &packed,
                m,
                n,
                k,
                b: ImageSource::dense(&image, &geom),
                accumulate: false,
                epilogue: Fused {
                    channels: ChannelEpilogue {
                        batch_norm: Some((&neg_mean, &scale)),
                        bias: &bias,
                    },
                    activation: ops::leaky_relu,
                },
            };
            let mut out = vec![0.0f32; m * n];
            let mut time = |instantiation: Instantiation| {
                let out = OutRows::Whole {
                    data: &mut out,
                    ld: n,
                };
                let cols = 0..n;
                let start = std::time::Instant::now();
                let ran = instantiation.run(Share { product, cols, out });
                ran.ok().map(|()| start.elapsed().as_secs_f64())
            };
            let (mut avx2, mut avx512) = (f64::MAX, f64::MAX);
            for round in 0..60 {
                let (Some(narrow), Some(wide)) = (time(Avx2), time(Avx512)) else {
                    eprintln!("no AVX2 and AVX-512F on this machine: nothing to compare");
                    return;
                };
                (avx2, avx512) = (avx2.min(narrow), avx512.min(wide));
                if round >= 6 && avx2 / avx512 >= 1.15 {
                    break;
                }
            }
            let ratio = avx2 / avx512;
            println!("{name}: AVX-512F 8x16 runs {ratio:.2}x the AVX2 8x8 instantiation");
            assert!(
                ratio >= 1.15 || cfg!(debug_assertions),
                "{name}: only {ratio:.2}x"
            );
        }
    }

    /// An [`ImageSource`] whose in-row strips all take the per-row path, as
    /// every kernel size but 3 and the border strips of a 3x3 row do.
    #[derive(Clone, Copy)]
    struct PerRow<'a>(ImageSource<'a>);

    impl PanelSource for PerRow<'_> {
        #[inline(always)]
        fn pack<const NR: usize>(self, j0: usize, nv: usize, kb: usize, panel: &mut [[f32; NR]]) {
            let ow = self.0.out_width;
            if nv == NR && j0 % ow + NR <= ow {
                self.0.pack_in_row(j0 / ow, j0 % ow, kb, panel);
            } else {
                self.0.pack(j0, nv, kb, panel);
            }
        }
    }

    /// The speed-up of the 3x3 interior packer, locked as a ratio on the
    /// same machine in the same run: one share over DroNet-352's conv2
    /// (8 x 72 x 30 976, too little arithmetic per column to hide a packer
    /// behind) is at least 1.08x as fast with it as with every strip packed
    /// tap by tap (measures 1.15-1.2x in release). Same bits; best-of times,
    /// the two interleaved, for at least seven rounds and on until the bar
    /// is cleared or sixty have run; asserted in optimised builds only, like
    /// the lock above.
    #[test]
    fn interior_packer_outruns_the_per_row_path_on_conv2() {
        let (geom, m) = (geometry(8, 176, 176, 3, 1, 1), 8);
        let n = geom.col_cols();
        let layer = Layer::random(&geom, m, 1, 1);
        fn time<B: PanelSource>(layer: &Layer, b: B, out: &mut [f32]) -> f64 {
            let n = out.len() / layer.packed.rows;
            let product = Product {
                a: &layer.packed.panels[..],
                m: layer.packed.rows,
                n,
                k: layer.packed.cols,
                b,
                accumulate: false,
                epilogue: Fused {
                    channels: layer.channels(true),
                    activation: ops::leaky_relu,
                },
            };
            let out = OutRows::Whole { data: out, ld: n };
            let start = std::time::Instant::now();
            dispatch::run(Share {
                product,
                cols: 0..n,
                out,
            });
            start.elapsed().as_secs_f64()
        }
        let source = ImageSource::dense(layer.input.as_slice(), &geom);
        let (mut out, mut out_per_row) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        let (mut interior, mut per_row) = (f64::MAX, f64::MAX);
        for round in 0..60 {
            per_row = per_row.min(time(&layer, PerRow(source), &mut out_per_row));
            interior = interior.min(time(&layer, source, &mut out));
            if round >= 6 && per_row / interior >= 1.08 {
                break;
            }
        }
        assert_eq!(bits(&out), bits(&out_per_row));
        let ratio = per_row / interior;
        println!("conv2: the interior packer runs {ratio:.2}x the per-row path");
        assert!(ratio >= 1.08 || cfg!(debug_assertions), "only {ratio:.2}x");
    }

    /// The one deliberate difference from the loop this kernel replaced.
    #[test]
    fn a_zero_weight_does_not_mask_a_non_finite_activation() {
        let geom = geometry(1, 1, NR, 1, 1, 0);
        let mut image = vec![1.0; NR];
        image[2] = f32::NAN;
        image[5] = f32::INFINITY;
        let packed = PackedMatrix::pack(&[0.0], 1, 1).unwrap();
        let channels = ChannelEpilogue {
            batch_norm: None,
            bias: &[0.5],
        };
        let mut out = vec![0.0; NR];
        let image = batch_of(&image, &geom);
        conv2d(
            Views::Batch(&image),
            &geom,
            &packed,
            channels,
            |v| v,
            &mut out,
        )
        .unwrap();
        for (j, v) in out.iter().enumerate() {
            assert_eq!(v.is_nan(), j == 2 || j == 5, "column {j}: {v}");
        }
    }

    /// The oracles' fused multiply-add, which never runs the `fma`
    /// instruction, against the one the standard library provides: ties,
    /// cancellations, products that lose bits either side of a power of
    /// two, subnormal and overflowing results, zeros of both signs, and
    /// random triples over forty binades.
    #[test]
    fn the_oracles_fused_multiply_add_rounds_once() {
        let tiny = f32::from_bits(1);
        let mut triples = vec![
            (
                1.0 + 2f32.powi(-12),
                1.0 + 2f32.powi(-12),
                -(1.0 + 2f32.powi(-11)),
            ),
            (1.0 + 2f32.powi(-23), 1.0 - 2f32.powi(-24), -1.0),
            (3.0, 1.0 / 3.0, -1.0),
            (0.1, 10.0, -1.0),
            (f32::MAX, 2.0, -f32::MAX),
            (f32::MAX, 1.0 + f32::EPSILON, 0.0),
            (tiny, 0.5, 0.0),
            (tiny, 1.5, tiny),
            (f32::MIN_POSITIVE, 0.75, -tiny),
            (0.0, -1.0, 0.0),
            (-0.0, 1.0, -0.0),
            (2.0, -0.5, 1.0),
            (f32::INFINITY, 0.0, 1.0),
            (f32::INFINITY, 1.0, f32::NEG_INFINITY),
            (f32::NAN, 1.0, 1.0),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut value = || {
            use rand::Rng;
            let mantissa: f32 = rng.gen_range(-2.0..2.0);
            mantissa * 2f32.powi(rng.gen_range(-20..20))
        };
        for _ in 0..100_000 {
            let (a, b) = (value(), value());
            // Sums that cancel most of the product as well as random ones.
            let c = match triples.len() % 3 {
                0 => -(a * b),
                1 => -(a * b) * (1.0 + value() * 1e-6),
                _ => value(),
            };
            triples.push((a, b, c));
        }
        for (a, b, c) in triples {
            let (got, want) = (Rounding::Fused.madd(c, a, b), a.mul_add(b, c));
            assert!(
                got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                "fma({a:e}, {b:e}, {c:e}) = {want:e}, not {got:e}"
            );
        }
    }

    #[test]
    fn conv2d_rejects_buffers_that_disagree_with_the_geometry() {
        let geom = geometry(2, 4, 4, 3, 1, 1);
        let packed = PackedMatrix::pack(&[0.0; 3 * 18], 3, 18).unwrap();
        let bias = [0.0; 3];
        let channels = ChannelEpilogue {
            batch_norm: None,
            bias: &bias,
        };
        let input = Tensor::zeros(Shape::nchw(2, 2, 4, 4));
        let mut out = vec![0.0; 2 * 48];
        let call = |input: &Tensor, geom: &ConvGeometry, channels, out: &mut [f32]| {
            conv2d(Views::Batch(input), geom, &packed, channels, |v| v, out)
        };
        let one = Tensor::zeros(Shape::nchw(1, 2, 4, 4));
        assert!(call(&input, &geom, channels, &mut out).is_ok());
        assert!(call(&Tensor::zeros(Shape::new(&[64])), &geom, channels, &mut out).is_err());
        assert!(call(&input, &geom, channels, &mut out[..95]).is_err());
        assert!(
            call(&one, &geom, channels, &mut out).is_err(),
            "batch 1 in, 2 out"
        );
        assert!(call(&input, &geometry(3, 4, 4, 3, 1, 1), channels, &mut out).is_err());
        assert!(call(&input, &geometry(2, 4, 4, 0, 1, 1), channels, &mut out).is_err());
        let short = ChannelEpilogue {
            batch_norm: None,
            bias: &bias[..2],
        };
        assert!(call(&input, &geom, short, &mut out).is_err());
        let bn = ChannelEpilogue {
            batch_norm: Some((&bias, &bias[..1])),
            bias: &bias,
        };
        assert!(call(&input, &geom, bn, &mut out).is_err());
        assert!(PackedMatrix::pack(&[0.0; 5], 2, 3).is_err());
        let no_channels = PackedMatrix::pack(&[], 0, 18).unwrap();
        let none = ChannelEpilogue {
            batch_norm: None,
            bias: &[],
        };
        let empty = Tensor::zeros(Shape::nchw(0, 2, 4, 4));
        assert!(conv2d(
            Views::Batch(&empty),
            &geom,
            &no_channels,
            none,
            |v| v,
            &mut []
        )
        .is_err());
        // Windows are checked as well: corners inside a [1, c, h, w] frame,
        // windows of the geometry's size.
        let frame = Tensor::zeros(Shape::nchw(1, 2, 6, 9));
        let windows = |frame, size, corners: &[(usize, usize)]| {
            let views = Views::Windows {
                frame,
                size,
                corners,
            };
            conv2d(views, &geom, &packed, channels, |v| v, &mut out.clone())
        };
        assert!(windows(&frame, (4, 4), &[(2, 5), (5, 8)]).is_ok());
        assert!(windows(&frame, (4, 4), &[(2, 5), (6, 0)]).is_err(), "below");
        assert!(windows(&frame, (4, 4), &[(2, 9), (0, 0)]).is_err(), "right");
        assert!(windows(&frame, (4, 5), &[(0, 0), (0, 0)]).is_err(), "size");
        assert!(windows(&frame, (0, 4), &[(0, 0), (0, 0)]).is_err(), "empty");
        assert!(
            windows(&input, (4, 4), &[(0, 0), (0, 0)]).is_err(),
            "batch 2"
        );
    }

    /// `size` windows at `corners` of a `[1, c, fh, fw]` frame, copied out
    /// the way a tile is extracted: zero past the frame's right and bottom
    /// edges.
    fn extracted(frame: &Tensor, (h, w): (usize, usize), corners: &[(usize, usize)]) -> Tensor {
        let s = frame.shape();
        let (c, fh, fw) = (s.channels(), s.height(), s.width());
        let mut copies = vec![0.0; corners.len() * c * h * w];
        for (&(y0, x0), copy) in corners.iter().zip(copies.chunks_exact_mut(c * h * w)) {
            for ch in 0..c {
                for y in 0..h.min(fh - y0) {
                    for x in 0..w.min(fw - x0) {
                        let pixel = frame.as_slice()[(ch * fh + y0 + y) * fw + x0 + x];
                        copy[(ch * h + y) * w + x] = pixel;
                    }
                }
            }
        }
        Tensor::from_vec(copies, Shape::nchw(corners.len(), c, h, w)).unwrap()
    }

    /// The view packer against the copy it replaces: `conv2d` and the pooled
    /// store over windows into a frame — corners off the origin, rows
    /// further apart than a window is wide, windows hanging over the right
    /// edge, the bottom edge or both, a frame smaller than a window, batches
    /// of 1 to 5 — give the bits of the same layer over the windows' copies,
    /// through `run` with every split and through every instantiation.
    #[test]
    fn windows_into_a_frame_compute_the_bits_of_their_copies() {
        // 10 x 40 windows: 16-wide strips at columns 0, 16 and 32, so a 3x3
        // kernel takes the interior packer on whole windows and the clipped
        // one on windows that hang over the right edge.
        let size = (10, 40);
        let cases = [
            ((23, 61), &[(0, 0)][..]),
            ((23, 61), &[(5, 7), (13, 21)]),
            ((23, 61), &[(2, 30), (17, 3), (20, 50)]),
            ((23, 61), &[(1, 1), (22, 60), (0, 45), (9, 0)]),
            ((23, 61), &[(3, 11), (3, 11), (12, 29), (8, 35), (19, 19)]),
            ((7, 25), &[(0, 0), (4, 9)]),
        ];
        let (m, activation) = (MR + 3, ops::leaky_relu);
        for (case, ((fh, fw), corners)) in cases.into_iter().enumerate() {
            let frame = batch_of(
                &random(3 * fh * fw, 500 + case as u64),
                &geometry(3, fh, fw, 1, 1, 0),
            );
            let views = Views::Windows {
                frame: &frame,
                size,
                corners,
            };
            let copies = extracted(&frame, size, corners);
            for (kernel, stride, pad) in [
                (3, 1, 1),
                (3, 1, 0),
                (5, 1, 2),
                (3, 2, 1),
                (1, 1, 0),
                (2, 2, 0),
            ] {
                let geom = geometry(3, size.0, size.1, kernel, stride, pad);
                let layer = Layer::random(&geom, m, 1, 600 + case as u64);
                let channels = layer.channels(true);
                for pooled in [false, true] {
                    if pooled && !pool_fits_the_store(&geom) {
                        continue;
                    }
                    let name =
                        format!("{fh}x{fw} frame, corners {corners:?}, {geom:?}, pooled={pooled}");
                    let n = geom.col_cols() / if pooled { 4 } else { 1 };
                    let mut want = vec![f32::NAN; corners.len() * m * n];
                    let dense = Views::Batch(&copies);
                    conv2d_split(
                        dense,
                        &geom,
                        &layer.packed,
                        channels,
                        activation,
                        &mut want,
                        None,
                        pooled,
                    )
                    .unwrap();
                    for split in [None, Some(0), Some(1), Some(2), Some(3), Some(7)] {
                        let mut out = vec![f32::NAN; want.len()];
                        conv2d_split(
                            views,
                            &geom,
                            &layer.packed,
                            channels,
                            activation,
                            &mut out,
                            split,
                            pooled,
                        )
                        .unwrap();
                        assert_eq!(bits(&out), bits(&want), "{name}, split {split:?}");
                    }
                    // The copies' bits through `run` above are the oracle's in
                    // this CPU's family; each instantiation is held to its own.
                    let naive = |r| layer.naive(&copies, &geom, true, activation, pooled, r);
                    assert_eq!(bits(&want), bits(&naive(rounding())), "{name}");
                    let [separate, fused] = [Rounding::Separate, Rounding::Fused].map(naive);
                    for i in 0..corners.len() {
                        let item = |r| {
                            let want = match r {
                                Rounding::Separate => &separate,
                                Rounding::Fused => &fused,
                            };
                            want[i * m * n..][..m * n].to_vec()
                        };
                        let product = Product {
                            a: &layer.packed.panels[..],
                            m,
                            n,
                            k: geom.col_rows(),
                            b: views.source(i, &geom),
                            accumulate: false,
                            epilogue: Fused {
                                channels,
                                activation,
                            },
                        };
                        let (garbage, case) = (vec![f32::NAN; m * n], format!("{name}, item {i}"));
                        if pooled {
                            every_instantiation_computes(
                                product,
                                geom.out_width() / 2,
                                |instantiation, share| {
                                    instantiation.run(PooledShare(share)).is_ok()
                                },
                                &garbage,
                                item,
                                &case,
                            );
                        } else {
                            every_instantiation_computes(
                                product, 8, plainly, &garbage, item, &case,
                            );
                        }
                    }
                }
            }
        }
    }
}
