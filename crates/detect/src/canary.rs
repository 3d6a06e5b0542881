//! Canary frames with golden detections — the bit-exactness probe a
//! replica must pass before re-admission.
//!
//! A quarantined detector replica is rebuilt from scratch; before it is
//! allowed to serve traffic again it must reproduce a *reference*
//! detector's output on a known frame **bit for bit**. Float-exact
//! equality is deliberate: the forward pass is deterministic on one
//! machine, so any deviation means the rebuild differs from the reference
//! (corrupted weights, a different resolution rung, a half-initialised
//! buffer) — exactly the states quarantine exists to catch. A tolerance
//! would let "slightly wrong" back into the pool.
//!
//! The canary frame itself is synthetic and seeded: a deterministic
//! SplitMix64 pattern with enough texture that an untrained or trained
//! network alike produces a non-trivial detection set, so the comparison
//! has actual content.

use crate::{Detection, Detector, Result};
use dronet_tensor::{Shape, Tensor};
use rand::rngs::SplitMix64;
use rand::RngCore;

/// Seed for the canary frame pattern. Fixed forever: golden outputs are
/// only comparable if every participant renders the identical frame.
const CANARY_SEED: u64 = 0x00CA_FED0_0DCA_4A21;

/// Renders the deterministic canary frame for a `(c, h, w)` detector
/// input: pixel values in `[0, 1)` drawn from SplitMix64. Same shape,
/// same bytes, every call, every process.
pub fn canary_frame(chw: (usize, usize, usize)) -> Tensor {
    let (c, h, w) = chw;
    let mut t = Tensor::zeros(Shape::nchw(1, c, h, w));
    let mut rng = SplitMix64::new(CANARY_SEED);
    for v in t.as_mut_slice().iter_mut() {
        // Top 24 bits → [0, 1): exactly representable, platform-stable.
        *v = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
    }
    t
}

/// Runs the canary frame through `detector` and returns its detections —
/// the golden output when `detector` is a trusted reference build.
///
/// # Errors
///
/// Propagates detector failures (a reference that cannot run the canary
/// is itself a fault worth surfacing).
pub fn golden_detections(detector: &mut Detector) -> Result<Vec<Detection>> {
    let frame = canary_frame(detector.input_chw());
    detector.detect(&frame)
}

/// Bit-exact equality of two detection lists: same length, same order,
/// and every float identical by `to_bits` (so `-0.0 != 0.0` and any NaN
/// mismatch fails — stricter than `PartialEq`).
pub fn detections_bit_equal(a: &[Detection], b: &[Detection]) -> bool {
    let f = |x: f32, y: f32| x.to_bits() == y.to_bits();
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.class == q.class
                && f(p.objectness, q.objectness)
                && f(p.class_prob, q.class_prob)
                && f(p.bbox.cx, q.bbox.cx)
                && f(p.bbox.cy, q.bbox.cy)
                && f(p.bbox.w, q.bbox.w)
                && f(p.bbox.h, q.bbox.h)
        })
}

/// The outcome of one canary probe, for logs and `/debug/vars`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanaryVerdict {
    /// Whether the candidate reproduced the golden output bit-exactly.
    pub passed: bool,
    /// Number of golden detections.
    pub expected: usize,
    /// Number of detections the candidate produced (0 on error).
    pub got: usize,
}

/// Probes `candidate` against a precomputed golden output: renders the
/// canary frame for the candidate's input shape, runs it, and compares
/// bit-exactly. A candidate that errors fails the probe (never panics
/// through).
pub fn check_canary(candidate: &mut Detector, golden: &[Detection]) -> CanaryVerdict {
    match golden_detections(candidate) {
        Ok(out) => CanaryVerdict {
            passed: detections_bit_equal(&out, golden),
            expected: golden.len(),
            got: out.len(),
        },
        Err(_) => CanaryVerdict {
            passed: false,
            expected: golden.len(),
            got: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorBuilder;

    fn detector(input: usize) -> Detector {
        let net = dronet_core::zoo::build(dronet_core::ModelId::DroNet, input).unwrap();
        DetectorBuilder::new(net)
            .confidence_threshold(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn canary_frame_is_deterministic_and_textured() {
        let a = canary_frame((3, 96, 96));
        let b = canary_frame((3, 96, 96));
        assert_eq!(a.as_slice(), b.as_slice(), "same shape, same bytes");
        let s = a.as_slice();
        assert!(s.iter().all(|v| (0.0..1.0).contains(v)));
        // Textured, not constant.
        let (min, max) = s
            .iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(max - min > 0.5, "canary must have texture: {min}..{max}");
    }

    /// Golden captured before the generator moved to the shared
    /// `rand::rngs::SplitMix64`: replica golden outputs are only comparable
    /// while every build renders this exact frame.
    #[test]
    fn canary_frame_bits_are_stable() {
        let bits: Vec<u32> = canary_frame((3, 32, 32)).as_slice()[..8]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits,
            [
                0x3F4D_F394,
                0x3F7D_79EF,
                0x3E38_B42C,
                0x3DFF_4870,
                0x3EB0_3384,
                0x3E6C_E0F0,
                0x3F01_8FB2,
                0x3D4B_01C0
            ]
        );
    }

    #[test]
    fn identical_builds_pass_and_mismatched_resolutions_fail() {
        let mut reference = detector(96);
        let golden = golden_detections(&mut reference).unwrap();
        assert!(!golden.is_empty(), "canary must produce detections");

        let mut candidate = detector(96);
        let verdict = check_canary(&mut candidate, &golden);
        assert!(verdict.passed, "identical build must pass: {verdict:?}");
        assert_eq!(verdict.expected, golden.len());

        // A candidate at a different rung renders a different canary frame
        // and cannot reproduce the golden output.
        let mut wrong = detector(128);
        let verdict = check_canary(&mut wrong, &golden);
        assert!(!verdict.passed, "wrong rung must fail the canary");
    }

    /// The premise of both brownout ladders: a detector built at the top
    /// of a ladder and fed the canary frame at each rung, down and back
    /// up, answers bit for bit what a fresh build at that rung does.
    #[test]
    fn one_detector_walks_a_ladder_bit_equal_to_fresh_builds() {
        type Build = fn(usize) -> dronet_nn::Result<dronet_nn::Network>;
        let dronet: Build = |s| dronet_core::zoo::build(dronet_core::ModelId::DroNet, s);
        let micro: Build = |s| dronet_core::zoo::micro_dronet(s, vec![(1.5, 1.5)]);
        let walks: [(Build, &[usize]); 2] = [
            (dronet, &[160, 128, 96, 64, 96, 128, 160]),
            (micro, &[64, 48, 32, 48, 64]),
        ];
        let build = |net| {
            DetectorBuilder::new(net)
                .confidence_threshold(0.3)
                .build()
                .unwrap()
        };
        for (net, walk) in walks {
            let mut walker = build(net(walk[0]).unwrap());
            for &s in walk {
                let frame = canary_frame((3, s, s));
                let walked = walker.detect(&frame).unwrap();
                assert_eq!(walker.input_chw(), (3, s, s));
                let fresh = build(net(s).unwrap()).detect(&frame).unwrap();
                assert!(!fresh.is_empty(), "rung {s} of {walk:?} detects nothing");
                assert!(
                    detections_bit_equal(&walked, &fresh),
                    "rung {s} of {walk:?}: {} vs {} detections",
                    walked.len(),
                    fresh.len()
                );
            }
            // The size follows the frame; the channel count does not.
            let gray = canary_frame((1, walk[0], walk[0]));
            assert!(matches!(
                walker.detect(&gray),
                Err(crate::DetectError::Network(
                    dronet_nn::NnError::BadInput { .. }
                ))
            ));
        }
    }

    #[test]
    fn bit_equality_is_stricter_than_partial_eq() {
        let mut reference = detector(96);
        let golden = golden_detections(&mut reference).unwrap();
        assert!(detections_bit_equal(&golden, &golden));

        let mut bent = golden.clone();
        if let Some(d) = bent.first_mut() {
            d.objectness = f32::from_bits(d.objectness.to_bits() ^ 1);
        }
        assert!(
            !detections_bit_equal(&golden, &bent),
            "a single flipped mantissa bit must fail"
        );
        assert!(!detections_bit_equal(&golden, &golden[..golden.len() - 1]));
    }
}
