//! The one GEMM kernel of the workspace: a packed, register-tiled
//! `MR x NR` microkernel, and the implicit-GEMM convolution built on it.
//!
//! Both [`crate::gemm`] and [`conv2d`] lower to the same loop nest. The
//! left operand is packed into `MR`-tall panels `[panel][k][MR]` — once per
//! layer for convolution weights ([`PackedMatrix`]), once per call for a
//! GEMM. The output columns are cut into strips of `NR`; for each strip
//! and each `KC`-deep block of the shared dimension a `KC x NR` panel of
//! the right operand is packed on the worker's stack, and every A panel is
//! multiplied against it in registers. For a convolution the right operand
//! is never materialised: the packer reads the `NR` output pixels' taps
//! **straight from the NCHW activation**, so the `[c*k*k, oh*ow]` column
//! matrix of [`crate::im2col`] does not exist at inference, and batch-norm,
//! bias and activation are applied as the last block is stored. Work is
//! shared out over column strips (and batch items) as a queue of shares
//! that the calling thread drains alongside the spawned workers.
//!
//! # Numeric contract
//!
//! For finite inputs every convolution output equals, bit for bit,
//! `act(((Σ w·x) + (−mean))·scale + bias)` with the sum taken in ascending
//! `(c, ky, kx)` order from `+0.0` in `f32`, multiply and add rounded
//! separately (no FMA) — the arithmetic of `im2col` followed by a naive
//! `i-k-j` GEMM followed by the batch-norm, bias and activation passes.
//! A GEMM computes `c ← beta·c` (`0` for `beta = 0`, untouched for
//! `beta = 1`) and then `c += (alpha·a_ik)·b_kj` for `k` ascending. Partial
//! sums that cross a `KC` block travel through the output buffer as `f32`,
//! which changes nothing. The result is independent of the tile sizes, of
//! how strips are shared between threads, and of the instruction set
//! (the `dispatch` module).
//!
//! One deliberate difference from the `i-k-j` loop this kernel replaced:
//! that loop skipped exactly-zero weights, so a zero weight masked a
//! non-finite activation. Here IEEE holds: `0·NaN = NaN`.

use crate::dispatch::{self, Kernel};
use crate::im2col::ConvGeometry;
use crate::{parallel, Result, TensorError};
use std::ops::Range;
use std::sync::Mutex;

/// Rows of the left operand (output channels) per register tile.
const MR: usize = 8;
/// Columns of the right operand (output pixels) per register tile.
const NR: usize = 8;
/// Depth of a packed right-operand panel. `KC x NR` floats live on the
/// worker's stack and stay in L1 while every A panel streams past them;
/// the backward GEMMs have `k = oh*ow` in the hundred thousands, so the
/// shared dimension must be blocked.
const KC: usize = 256;
/// Below this many multiply-adds a kernel runs on the calling thread
/// alone: spawning a scoped thread costs about as much as computing them.
const PAR_MIN_MACS: usize = 1 << 21;
/// Shares queued per worker thread. More than one, so that the split evens
/// itself out when a worker gets going late — a freshly spawned thread may
/// sit on its parent's run queue for a millisecond before the kernel's load
/// balancer moves it to an idle core.
const SHARES_PER_WORKER: usize = 8;

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
    /// Fills `panel[p * NR + t]` with element `(kb + p, j0 + t)` of the
    /// right operand for every `p` the panel has room for and `t < nv`;
    /// columns `nv..NR` are zeroed.
    fn pack(self, j0: usize, nv: usize, kb: usize, panel: &mut [f32]);
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
    fn pack(self, j0: usize, nv: usize, kb: usize, panel: &mut [f32]) {
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
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

/// The implicit column matrix of a convolution: row `(c, ky, kx)`, column
/// `oy * ow + ox` is the input pixel that tap sees there, or zero padding.
#[derive(Clone, Copy)]
struct ImageSource<'a> {
    image: &'a [f32],
    geom: ConvGeometry,
    out_width: usize,
}

impl PanelSource for ImageSource<'_> {
    #[inline(always)]
    fn pack(self, j0: usize, nv: usize, kb: usize, panel: &mut [f32]) {
        let ConvGeometry {
            height: h,
            width: w,
            kernel: k,
            stride,
            pad,
            ..
        } = self.geom;
        let ow = self.out_width;
        let (oy0, ox0) = (j0 / ow, j0 % ow);
        // A full strip inside one output row of a stride-1 convolution reads
        // NR consecutive input pixels per tap.
        let in_one_row = stride == 1 && nv == NR && ox0 + NR <= ow;
        let (mut c, mut ky, mut kx) = match kb {
            0 => (0, 0, 0),
            _ => (kb / (k * k), kb / k % k, kb % k),
        };
        for dst in panel.chunks_exact_mut(NR) {
            let plane = &self.image[c * h * w..][..h * w];
            if in_one_row {
                // Coordinates left of / above the image wrap to huge values
                // and fail the `< h` / `< w` tests like those on the far side.
                let iy = (oy0 + ky).wrapping_sub(pad);
                let ix0 = (ox0 + kx).wrapping_sub(pad);
                if iy < h && ix0 < w && ix0 + NR <= w {
                    dst.copy_from_slice(&plane[iy * w + ix0..][..NR]);
                } else {
                    for (t, d) in dst.iter_mut().enumerate() {
                        let ix = ix0.wrapping_add(t);
                        *d = if iy < h && ix < w {
                            plane[iy * w + ix]
                        } else {
                            0.0
                        };
                    }
                }
            } else {
                let (mut oy, mut ox) = (oy0, ox0);
                for (t, d) in dst.iter_mut().enumerate() {
                    let iy = (oy * stride + ky).wrapping_sub(pad);
                    let ix = (ox * stride + kx).wrapping_sub(pad);
                    *d = if t < nv && iy < h && ix < w {
                        plane[iy * w + ix]
                    } else {
                        0.0
                    };
                    ox += 1;
                    if ox == ow {
                        (oy, ox) = (oy + 1, 0);
                    }
                }
            }
            kx += 1;
            if kx == k {
                (ky, kx) = (ky + 1, 0);
                if ky == k {
                    (c, ky) = (c + 1, 0);
                }
            }
        }
    }
}

/// What happens to a finished sum on its way to memory.
trait Epilogue: Copy + Send {
    /// Maps the `NR` finished sums of output row `row`.
    fn apply(self, row: usize, sums: [f32; NR]) -> [f32; NR];
}

/// GEMM: the sum is the result.
#[derive(Clone, Copy)]
struct Plain;

impl Epilogue for Plain {
    #[inline(always)]
    fn apply(self, _: usize, sums: [f32; NR]) -> [f32; NR] {
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
    fn apply(self, row: usize, sums: [f32; NR]) -> [f32; NR] {
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
    /// tile at `(i0, j0)`. A full tile takes a loop of constant shape, so a
    /// copy in `f` is one vector move per row instead of a `memcpy` call.
    #[inline(always)]
    fn tile_rows(
        &mut self,
        (i0, mv): (usize, usize),
        (j0, nv): (usize, usize),
        mut f: impl FnMut(usize, &mut [f32]),
    ) {
        if mv == MR && nv == NR {
            for i in 0..MR {
                f(i, self.tile_row(i0 + i, j0, NR));
            }
        } else {
            for i in 0..mv {
                f(i, self.tile_row(i0 + i, j0, nv));
            }
        }
    }
}

/// One thread's part of a product: every row, every `k`, the column strips
/// `strips`.
struct Share<'a, B, E> {
    product: Product<'a, B, E>,
    strips: Range<usize>,
    out: OutRows<'a>,
}

impl<B: PanelSource, E: Epilogue> Kernel for Share<'_, B, E> {
    #[inline(always)]
    fn run(self) {
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
            strips,
            mut out,
        } = self;
        let mut panel = [0.0f32; KC * NR];
        for strip in strips {
            let j0 = strip * NR;
            let nv = NR.min(n - j0);
            for kb in (0..k).step_by(KC) {
                let kc = KC.min(k - kb);
                let panel = &mut panel[..kc * NR];
                b.pack(j0, nv, kb, panel);
                let from_zero = kb == 0 && !accumulate;
                let last = kb + kc == k;
                for i0 in (0..m).step_by(MR) {
                    let mv = MR.min(m - i0);
                    let a_block = &a[(i0 * k + kb * MR)..][..kc * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    if !from_zero {
                        out.tile_rows((i0, mv), (j0, nv), |i, row| {
                            acc[i][..row.len()].copy_from_slice(row);
                        });
                    }
                    acc = microkernel(a_block, panel, acc);
                    if last {
                        // Every row of the tile, padding rows included (on
                        // the last real row's coefficients): a loop of
                        // constant shape stays in vector registers.
                        for (i, sums) in acc.iter_mut().enumerate() {
                            *sums = epilogue.apply((i0 + i).min(m - 1), *sums);
                        }
                    }
                    out.tile_rows((i0, mv), (j0, nv), |i, row| {
                        row.copy_from_slice(&acc[i][..row.len()]);
                    });
                }
            }
        }
    }
}

/// `acc[i][j] += a[p][i] * b[p][j]` for `p` ascending: the register tile.
///
/// The accumulators are a local array of constant shape, so LLVM keeps them
/// in vector registers across the `p` loop. The column loop is written
/// *outside* the row loop on purpose: the row loop is then the one that is
/// fully unrolled first, and the loop left for the vectoriser runs along a
/// row of `acc` and of `b` (contiguous) with `a[i]` broadcast. Nested the
/// other way round, `opt-level = 2` vectorises down the columns and spends
/// the loop transposing the tile — 13x slower, same bits.
#[inline(always)]
fn microkernel(a: &[f32], b: &[f32], mut acc: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for (j, &b) in b.iter().enumerate() {
            for (sums, &a) in acc.iter_mut().zip(a) {
                sums[j] += a * b;
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
/// to be worth a thread spawn, otherwise enough for [`SHARES_PER_WORKER`].
fn auto_split(m: usize, n: usize, k: usize, jobs: usize) -> usize {
    let workers = parallel::worker_count();
    let macs = [n, k, jobs].iter().fold(m, |acc, &d| acc.saturating_mul(d));
    if workers <= 1 || jobs == 0 || macs < PAR_MIN_MACS {
        0
    } else {
        (SHARES_PER_WORKER * workers).div_ceil(jobs)
    }
}

/// Computes every job. With `split == 0` on the calling thread, indexing
/// each output directly — no allocation, which is what keeps a warm
/// single-worker forward pass allocation-free. Otherwise each job's column
/// strips are cut into `split` nearly equal shares and the workers — the
/// calling thread and `worker_count() - 1` scoped threads — take shares off
/// one queue until it is empty, so a worker that starts late or is
/// descheduled delays nobody: the others simply take more.
fn run<'a, B, E>(jobs: impl Iterator<Item = Job<'a, B, E>>, split: usize)
where
    B: PanelSource + 'a,
    E: Epilogue + 'a,
{
    let mut work = Vec::new();
    for (product, out) in jobs {
        let n = product.n;
        let strips = n.div_ceil(NR);
        if split == 0 {
            dispatch::run(Share {
                product,
                strips: 0..strips,
                out: OutRows::Whole { data: out, ld: n },
            });
            continue;
        }
        let ranges = parallel::split_ranges(strips, split);
        let mut tables: Vec<Vec<&mut [f32]>> = ranges
            .iter()
            .map(|_| Vec::with_capacity(product.m))
            .collect();
        for row in out.chunks_exact_mut(n) {
            let mut rest = row;
            for (table, range) in tables.iter_mut().zip(&ranges) {
                let width = (range.end * NR).min(n) - range.start * NR;
                let (segment, tail) = rest.split_at_mut(width);
                table.push(segment);
                rest = tail;
            }
        }
        work.extend(ranges.into_iter().zip(tables).map(|(strips, rows)| {
            let col0 = strips.start * NR;
            Share {
                product,
                strips,
                out: OutRows::Segments { rows, col0 },
            }
        }));
    }
    // `thread::scope` allocates even when nothing is spawned.
    if work.is_empty() {
        return;
    }
    let helpers = parallel::worker_count().min(work.len()) - 1;
    let queue = Mutex::new(work);
    let drain = || loop {
        // The guard is a temporary: the lock is released before the share runs.
        let share = queue.lock().expect("a worker panicked").pop();
        match share {
            Some(share) => dispatch::run(share),
            None => break,
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(drain);
        }
        drain();
    });
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
    run(std::iter::once((product, c)), split);
}

/// A batch of images through one convolution layer, column matrix never
/// built: `out[b][oc][oy*ow + ox] = activation(channels(Σ weights[oc][c,ky,kx]
/// · input[b][c][oy*s + ky − pad][ox*s + kx − pad]))`, to the bit as stated
/// in the [module docs](self).
///
/// `input` is `[batch, c, h, w]`, `weights` the packed `[out_c, c*k*k]`
/// matrix, `out` the `[batch, out_c, oh, ow]` output; every element of
/// `out` is assigned, so it may hold stale data on entry. The batch size is
/// whatever `out` has room for.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for invalid geometry and
/// [`TensorError::ShapeMismatch`] / [`TensorError::LengthMismatch`] when a
/// buffer disagrees with it.
pub fn conv2d<A>(
    input: &[f32],
    geom: &ConvGeometry,
    weights: &PackedMatrix,
    channels: ChannelEpilogue<'_>,
    activation: A,
    out: &mut [f32],
) -> Result<()>
where
    A: Fn(f32) -> f32 + Copy + Send,
{
    conv2d_split(input, geom, weights, channels, activation, out, None)
}

/// [`conv2d`] with the split spelled out (see [`run`]; `None`: as the work
/// warrants).
fn conv2d_split<A>(
    input: &[f32],
    geom: &ConvGeometry,
    weights: &PackedMatrix,
    channels: ChannelEpilogue<'_>,
    activation: A,
    out: &mut [f32],
    split: Option<usize>,
) -> Result<()>
where
    A: Fn(f32) -> f32 + Copy + Send,
{
    geom.validate()?;
    let (m, k, n) = (weights.rows, geom.col_rows(), geom.col_cols());
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
    for (op, expected, actual) in [
        ("conv2d output", batch * m * n, out.len()),
        ("conv2d input", batch * geom.channels * plane, input.len()),
        ("conv2d weights", k, weights.cols),
    ] {
        if expected != actual {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: vec![expected],
                rhs: vec![actual],
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
    // A 1x1 stride-1 unpadded convolution never looks across pixels, so its
    // image is as good as one long row: every full strip is then a straight
    // copy of NR consecutive activations, whatever the real width.
    let flat = geom.kernel == 1 && geom.stride == 1 && geom.pad == 0;
    let geom = ConvGeometry {
        height: if flat { 1 } else { geom.height },
        width: if flat { plane } else { geom.width },
        ..*geom
    };
    let images = input.chunks_exact(geom.channels * plane);
    let jobs = images.zip(out.chunks_exact_mut(m * n)).map(|(image, out)| {
        let product = Product {
            a: &weights.panels[..],
            m,
            n,
            k,
            b: ImageSource {
                image,
                geom,
                out_width: geom.out_width(),
            },
            accumulate: false,
            epilogue: Fused {
                channels,
                activation,
            },
        };
        (product, out)
    });
    run(jobs, split.unwrap_or_else(|| auto_split(m, n, k, batch)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, ops, Shape};
    use rand::SeedableRng;

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

    /// The contract, spelled out the slow way: `c ← beta·c`, then
    /// `c += (alpha·a_ik)·b_kj` for `k` ascending.
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
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut sum = match beta {
                    0.0 => 0.0,
                    1.0 => c[i * n + j],
                    _ => beta * c[i * n + j],
                };
                for p in 0..k {
                    sum += (alpha * a[i * k + p]) * b[p * n + j];
                }
                c[i * n + j] = sum;
            }
        }
    }

    /// The convolution contract the slow way: the sum over `(c, ky, kx)`
    /// ascending from +0.0 (padding taps add `w·0`), then batch norm, bias
    /// and activation as separately rounded steps.
    fn naive_conv(
        input: &[f32],
        geom: &ConvGeometry,
        weights: &[f32],
        channels: ChannelEpilogue<'_>,
        activation: impl Fn(f32) -> f32,
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
                                    sum += weights[oc * kk + tap] * x;
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
            naive_gemm(m, n, k, alpha, &a, &b, beta, &mut want);
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
            let want = naive_conv(&input, &geom, &weights, channels, ops::leaky_relu);
            let packed = PackedMatrix::pack(&weights, m, k).unwrap();
            for split in [None, Some(0), Some(1), Some(2), Some(3), Some(7)] {
                let mut out = vec![f32::NAN; want.len()];
                conv2d_split(
                    &input,
                    &geom,
                    &packed,
                    channels,
                    ops::leaky_relu,
                    &mut out,
                    split,
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

    /// The two instantiations of the kernel, called directly — no switch
    /// selects a backend, so this is the only place the portable one runs on
    /// an AVX2 machine.
    #[test]
    fn portable_and_avx2_instantiations_agree_bit_for_bit() {
        fn both<B: PanelSource, E: Epilogue>(product: Product<'_, B, E>, c0: &[f32]) -> bool {
            let share = |out| Share {
                product,
                strips: 0..product.n.div_ceil(NR),
                out: OutRows::Whole {
                    data: out,
                    ld: product.n,
                },
            };
            let (mut portable, mut avx2) = (c0.to_vec(), c0.to_vec());
            share(&mut portable).run();
            if dispatch::run_avx2(share(&mut avx2)).is_err() {
                return false;
            }
            assert_eq!(bits(&portable), bits(&avx2));
            true
        }

        let (m, n, k) = (MR + 5, 3 * NR + 1, KC + 9);
        let (a, b, c0) = (random(m * k, 1), random(k * n, 2), random(m * n, 3));
        let packed = pack_a(&a, m, k, k, 1, 0.7);
        let gemm = Product {
            a: &packed,
            m,
            n,
            k,
            b: MatrixSource {
                data: &b,
                rs: n,
                cs: 1,
            },
            accumulate: true,
            epilogue: Plain,
        };
        let mut compared = both(gemm, &c0);

        for (geom, m) in conv_cases() {
            let k = geom.col_rows();
            let image = random(geom.channels * geom.height * geom.width, 4);
            let packed = pack_a(&random(m * k, 5), m, k, k, 1, 1.0);
            let (neg_mean, scale, bias) = (random(m, 6), random(m, 7), random(m, 8));
            let conv = Product {
                a: &packed,
                m,
                n: geom.col_cols(),
                k,
                b: ImageSource {
                    image: &image,
                    geom,
                    out_width: geom.out_width(),
                },
                accumulate: false,
                epilogue: Fused {
                    channels: ChannelEpilogue {
                        batch_norm: Some((&neg_mean, &scale)),
                        bias: &bias,
                    },
                    activation: ops::leaky_relu,
                },
            };
            compared &= both(conv, &vec![f32::NAN; m * geom.col_cols()]);
        }
        if !compared {
            eprintln!("no AVX2 on this machine: only the portable instantiation ran");
        }
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
        conv2d(&image, &geom, &packed, channels, |v| v, &mut out).unwrap();
        for (j, v) in out.iter().enumerate() {
            assert_eq!(v.is_nan(), j == 2 || j == 5, "column {j}: {v}");
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
        let input = vec![0.0; 2 * 32];
        let mut out = vec![0.0; 2 * 48];
        let call = |input: &[f32], geom: &ConvGeometry, channels, out: &mut [f32]| {
            conv2d(input, geom, &packed, channels, |v| v, out)
        };
        assert!(call(&input, &geom, channels, &mut out).is_ok());
        assert!(call(&input[..63], &geom, channels, &mut out).is_err());
        assert!(call(&input, &geom, channels, &mut out[..95]).is_err());
        assert!(
            call(&input[..32], &geom, channels, &mut out).is_err(),
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
        assert!(conv2d(&[], &geom, &no_channels, none, |v| v, &mut []).is_err());
    }
}
