//! Run-time CPU dispatch: one of the two modules of this crate that may
//! use `unsafe` (the other is the kernel pool, `parallel::pool`).
//!
//! The kernels in [`crate::packed`] are safe Rust written so that LLVM
//! auto-vectorises them. Compiled for the baseline `x86_64` target that
//! means SSE2; compiled inside a `#[target_feature(enable = "avx2")]`
//! function the same source becomes 8-wide AVX2, inside an `avx512f` one
//! 16-wide AVX-512. Each instruction set gets the register tile that suits
//! its register file — the tile width is a const parameter of the kernel,
//! fixed here. All instantiations perform the identical IEEE operations
//! per element — Rust never contracts a multiply and an add on its own,
//! whatever features are enabled (`avx512f` implies `fma`), and the kernels
//! call no `mul_add` — which is why their outputs agree bit for bit.
//!
//! The unsafe budget is two blocks: the calls into the AVX2 and the
//! AVX-512F instantiation, each directly behind the feature check that
//! makes it sound. No raw pointers, no `std::arch` intrinsics. Other
//! architectures build only the portable instantiation.

#![allow(unsafe_code)] // calling `#[target_feature]` functions; see the module docs

/// Tile width — columns of the right operand per register tile — of the
/// portable and the AVX2 instantiation: eight accumulator rows of one
/// `ymm` register (two `xmm`) each.
const NR: usize = 8;
/// Tile width under AVX-512F: eight accumulator rows of one `zmm` each.
const NR_AVX512: usize = 16;

/// A unit of kernel work that is compiled once per instruction set.
///
/// Implementations mark `run` (and everything it calls) `#[inline(always)]`
/// so the whole body is inlined into — and code-generated with the features
/// of — whichever wrapper below calls it.
pub(crate) trait Kernel {
    /// Does the work on register tiles `NR` columns wide. The result does
    /// not depend on `NR`.
    fn run<const NR: usize>(self);
}

/// Runs `kernel` with the widest instruction set this CPU supports.
pub(crate) fn run<K: Kernel>(kernel: K) {
    let Err(kernel) = run_avx512(kernel) else {
        return;
    };
    if let Err(kernel) = run_avx2(kernel) {
        kernel.run::<NR>();
    }
}

/// The tile width [`run`] uses on this CPU: work cut at multiples of it
/// leaves every piece but the last whole tiles.
pub(crate) fn tile_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return NR_AVX512;
    }
    NR
}

/// Runs `kernel` in its AVX2 instantiation, or hands it back untouched when
/// the CPU (or the target architecture) has no AVX2.
pub(crate) fn run_avx2<K: Kernel>(kernel: K) -> Result<(), K> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` is safe to call on a CPU that supports AVX2, which
        // the check on the line above has just established.
        unsafe { avx2(kernel) };
        return Ok(());
    }
    Err(kernel)
}

/// Runs `kernel` in its AVX-512F instantiation, or hands it back untouched
/// when the CPU (or the target architecture) has no AVX-512F.
pub(crate) fn run_avx512<K: Kernel>(kernel: K) -> Result<(), K> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: `avx512` is safe to call on a CPU that supports AVX-512F,
        // which the check on the line above has just established.
        unsafe { avx512(kernel) };
        return Ok(());
    }
    Err(kernel)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) {
    kernel.run::<NR>();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<K: Kernel>(kernel: K) {
    kernel.run::<NR_AVX512>();
}
