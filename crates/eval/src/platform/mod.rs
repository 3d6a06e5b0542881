//! Analytic performance models of the embedded platforms the DroNet paper
//! evaluates on — the substitution for hardware we do not have (see
//! `DESIGN.md` §4):
//!
//! * Intel i5-2520M laptop CPU (the paper's design-space exploration
//!   platform),
//! * Odroid-XU4 (Samsung Exynos 5422) — the UAV companion computer of
//!   Fig. 5,
//! * Raspberry Pi 3 Model B,
//! * NVIDIA Titan Xp (the training GPU, for context).
//!
//! The model is a **roofline with a cache-capacity term**: each layer runs
//! at `min(effective_compute, bandwidth)` speed, where effective compute
//! collapses by a platform-specific factor when the layer's weights
//! overflow the last-level cache (this is what makes Tiny-YOLO-VOC's
//! 1024-filter, 37 MB-weight layers catastrophically slow on the Odroid —
//! 0.1 FPS in the paper — while the cache-resident DroNet reaches 8–10
//! FPS). A fixed per-layer dispatch overhead models Darknet's layer loop.
//!
//! Constants are calibrated once against the paper's anchor numbers (see
//! `spec.rs`) and then *every* relative result — model ratios, input-size
//! scaling, platform ordering — emerges from the real per-layer FLOP/byte
//! counts of our networks.
//!
//! # Example
//!
//! ```
//! use dronet_eval::platform::{Platform, PlatformId};
//!
//! # fn main() -> Result<(), dronet_nn::NnError> {
//! let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, 512)?;
//! let odroid = Platform::preset(PlatformId::OdroidXu4);
//! let projection = odroid.project(&net);
//! // The paper reports 8-10 FPS for DroNet-512 on the Odroid.
//! assert!(projection.fps.0 > 5.0 && projection.fps.0 < 13.0);
//! # Ok(())
//! # }
//! ```

mod project;
mod spec;

pub use project::{LayerTime, Projection};
pub use spec::{Platform, PlatformId};
