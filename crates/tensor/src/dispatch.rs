//! Run-time CPU dispatch: one of the two modules of this crate that may
//! use `unsafe` (the other is the kernel pool, `parallel::pool`).
//!
//! The kernels in [`crate::packed`] are safe Rust written so that LLVM
//! auto-vectorises them. Compiled for the baseline `x86_64` target that
//! means SSE2; compiled inside a `#[target_feature(enable = "avx2,fma")]`
//! function the same source becomes 8-wide AVX2, inside an `avx512f,fma`
//! one 16-wide AVX-512. Each instruction set gets the register tile that
//! suits its register file and the rounding its arithmetic has — both are
//! const parameters of the kernel, fixed here:
//!
//! * the portable instantiation multiplies and adds, each rounded: Rust
//!   never contracts the two on its own, whatever features are enabled, and
//!   a `mul_add` without `fma` would be a library call per tap;
//! * the AVX2 and AVX-512F instantiations sum with one fused multiply-add
//!   per tap, the only `mul_add` of the crate ([`crate::packed`]'s
//!   microkernel).
//!
//! So the instantiations fall into two rounding families,
//! [`Rounding::Separate`] and [`Rounding::Fused`], and within a family they
//! agree bit for bit. Which one runs is decided once per process from the
//! CPU ([`Isa`]); [`rounding`] reports it, and nothing sets it.
//!
//! The unsafe budget is two blocks: the calls into the AVX2 and the
//! AVX-512F instantiation, each directly behind the check of the detected
//! instruction set that makes it sound. No raw pointers, no `std::arch`
//! intrinsics. Other architectures build only the portable instantiation.

#![allow(unsafe_code)] // calling `#[target_feature]` functions; see the module docs

use crate::packed::Rounding;
use std::sync::OnceLock;

/// Tile width — columns of the right operand per register tile — of the
/// portable and the AVX2 instantiation: eight accumulator rows of one
/// `ymm` register (two `xmm`) each.
const NR: usize = 8;
/// Tile width under AVX-512F: eight accumulator rows of one `zmm` each.
const NR_AVX512: usize = 16;

/// The widest instruction set the kernels run in on this CPU. Each level
/// implies the features of the ones below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Isa {
    /// The baseline target: no fused multiply-add.
    Portable,
    /// `avx2` and `fma`.
    Avx2Fma,
    /// `avx512f` as well.
    Avx512Fma,
}

/// The instruction set of this process, detected on first use.
fn isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return match std::arch::is_x86_feature_detected!("avx512f") {
                true => Isa::Avx512Fma,
                false => Isa::Avx2Fma,
            };
        }
        Isa::Portable
    })
}

/// A unit of kernel work that is compiled once per instruction set.
///
/// Implementations mark `run` (and everything it calls) `#[inline(always)]`
/// so the whole body is inlined into — and code-generated with the features
/// of — whichever wrapper below calls it.
pub(crate) trait Kernel {
    /// Does the work on register tiles `NR` columns wide, each tap summed
    /// with one fused multiply-add if `FUSED` and with a multiply and an add
    /// otherwise. The result does not depend on `NR`.
    fn run<const NR: usize, const FUSED: bool>(self);
}

/// Runs `kernel` with the widest instruction set this CPU supports.
pub(crate) fn run<K: Kernel>(kernel: K) {
    let Err(kernel) = run_avx512(kernel) else {
        return;
    };
    if let Err(kernel) = run_avx2(kernel) {
        kernel.run::<NR, false>();
    }
}

/// The tile width [`run`] uses on this CPU: work cut at multiples of it
/// leaves every piece but the last whole tiles.
pub(crate) fn tile_width() -> usize {
    match isa() {
        Isa::Avx512Fma => NR_AVX512,
        Isa::Avx2Fma | Isa::Portable => NR,
    }
}

/// The rounding family of what [`run`] computes on this CPU.
pub(crate) fn rounding() -> Rounding {
    match isa() {
        Isa::Portable => Rounding::Separate,
        Isa::Avx2Fma | Isa::Avx512Fma => Rounding::Fused,
    }
}

/// Runs `kernel` in its AVX2 instantiation, or hands it back untouched when
/// the CPU (or the target architecture) lacks AVX2 or FMA.
pub(crate) fn run_avx2<K: Kernel>(kernel: K) -> Result<(), K> {
    #[cfg(target_arch = "x86_64")]
    if isa() >= Isa::Avx2Fma {
        // SAFETY: `avx2` is safe to call on a CPU that supports AVX2 and FMA,
        // and `isa` reaches `Avx2Fma` only when both were detected.
        unsafe { avx2(kernel) };
        return Ok(());
    }
    Err(kernel)
}

/// Runs `kernel` in its AVX-512F instantiation, or hands it back untouched
/// when the CPU (or the target architecture) lacks AVX-512F or FMA.
pub(crate) fn run_avx512<K: Kernel>(kernel: K) -> Result<(), K> {
    #[cfg(target_arch = "x86_64")]
    if isa() == Isa::Avx512Fma {
        // SAFETY: `avx512` is safe to call on a CPU that supports AVX-512F
        // and FMA, and `isa` is `Avx512Fma` only when both were detected.
        unsafe { avx512(kernel) };
        return Ok(());
    }
    Err(kernel)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2<K: Kernel>(kernel: K) {
    kernel.run::<NR, true>();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn avx512<K: Kernel>(kernel: K) {
    kernel.run::<NR_AVX512, true>();
}
