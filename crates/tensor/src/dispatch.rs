//! Run-time CPU dispatch: the only module of this crate that may use
//! `unsafe`.
//!
//! The kernels in [`crate::packed`] are safe Rust written so that LLVM
//! auto-vectorises them. Compiled for the baseline `x86_64` target that
//! means SSE2; compiled inside a `#[target_feature(enable = "avx2")]`
//! function the same source becomes 8-wide AVX2. Both instantiations
//! perform the identical IEEE operations per element (no FMA feature is
//! ever enabled, so a multiply and an add are never contracted), which is
//! why their outputs agree bit for bit.
//!
//! The unsafe budget is one block: the call into the AVX2 instantiation,
//! directly behind the feature check that makes it sound. No raw pointers,
//! no `std::arch` intrinsics. Other architectures build only the portable
//! instantiation.

#![allow(unsafe_code)] // calling a `#[target_feature]` function; see the module docs

/// A unit of kernel work that is compiled once per instruction set.
///
/// Implementations mark `run` (and everything it calls) `#[inline(always)]`
/// so the whole body is inlined into — and code-generated with the features
/// of — whichever wrapper below calls it.
pub(crate) trait Kernel {
    /// Does the work.
    fn run(self);
}

/// Runs `kernel` with the widest instruction set this CPU supports.
pub(crate) fn run<K: Kernel>(kernel: K) {
    if let Err(kernel) = run_avx2(kernel) {
        kernel.run();
    }
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<K: Kernel>(kernel: K) {
    kernel.run();
}
