//! Property-based tests for the checkpoint format: arbitrary corruption
//! (truncation, bit flips, garbage) must never panic or silently load —
//! every byte stream is either the exact checkpoint back or a typed
//! [`CheckpointError`].

use dronet_train::{crc32, Checkpoint, CheckpointError, OptimizerState, SgdState};
use proptest::prelude::*;

/// Builds a checkpoint with contents fully derived from the proptest
/// inputs, exercising both optimizer variants and the optional fields.
fn build_checkpoint(
    step: u64,
    weights: Vec<u8>,
    losses: Vec<f32>,
    kind: u8,
    groups: Vec<Vec<f32>>,
    ewma: Option<f32>,
) -> Checkpoint {
    let optimizer = match kind % 2 {
        0 => OptimizerState::None,
        _ => OptimizerState::Sgd(SgdState { velocity: groups }),
    };
    Checkpoint {
        step,
        epoch: step / 7,
        batch_in_epoch: step % 7,
        images_seen: step.wrapping_mul(9),
        best_loss: losses.first().copied().unwrap_or(f32::INFINITY),
        lr_scale: 0.5,
        ewma_loss: ewma,
        rollbacks: step % 3,
        trips: step % 5,
        epoch_losses: losses,
        epoch_loss_partial: 1.25,
        epoch_batches_partial: step % 11,
        weights,
        optimizer,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serialisation round-trips bit-exactly for arbitrary contents.
    #[test]
    fn roundtrip_is_bit_exact(
        step in any::<u64>(),
        weights in prop::collection::vec(any::<u8>(), 0..256),
        losses in prop::collection::vec(0.0f32..100.0, 0..8),
        kind in any::<u8>(),
        group in prop::collection::vec(-10.0f32..10.0, 0..32),
        ewma_raw in 0.0f32..50.0,
        has_ewma in any::<u8>(),
    ) {
        let ewma = has_ewma.is_multiple_of(2).then_some(ewma_raw);
        let ckpt = build_checkpoint(step, weights, losses, kind, vec![group], ewma);
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, ckpt);
    }

    /// Every possible truncation of a valid checkpoint is a typed error,
    /// never a panic and never a silent success.
    #[test]
    fn truncation_never_panics_or_loads(
        step in any::<u64>(),
        weights in prop::collection::vec(any::<u8>(), 0..64),
        cut_frac in 0.0f64..1.0,
    ) {
        let ckpt = build_checkpoint(step, weights, vec![1.0], 1, vec![vec![0.5; 4]], None);
        let bytes = ckpt.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        let err = Checkpoint::from_bytes(&bytes[..cut])
            .expect_err("a truncated checkpoint must not load");
        prop_assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. }
                    | CheckpointError::CrcMismatch { .. }
                    | CheckpointError::BadMagic { .. }
                    | CheckpointError::MissingSection { .. }
                    | CheckpointError::Malformed { .. }
            ),
            "unexpected error class: {err}"
        );
    }

    /// A single flipped bit anywhere in the file is always detected.
    #[test]
    fn single_bit_flip_is_always_detected(
        step in any::<u64>(),
        weights in prop::collection::vec(any::<u8>(), 1..64),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let ckpt = build_checkpoint(step, weights, vec![2.0, 1.5], 2, vec![vec![0.1; 3]], Some(1.0));
        let mut bytes = ckpt.to_bytes();
        let idx = (byte_pick % bytes.len() as u64) as usize;
        bytes[idx] ^= 1u8 << bit;
        match Checkpoint::from_bytes(&bytes) {
            Err(_) => {}
            // CRC32 catches all single-bit flips; a load that still
            // succeeds would mean the flip escaped every checksum.
            Ok(loaded) => prop_assert_eq!(loaded, ckpt),
        }
    }

    /// Arbitrary garbage never panics: either `BadMagic` (wrong prefix) or
    /// another typed error (garbage that guessed the magic).
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Checkpoint::from_bytes(&bytes);
    }

    /// Garbage appended after a valid checkpoint is rejected — the format
    /// is self-delimiting and strict.
    #[test]
    fn trailing_garbage_is_rejected(
        step in any::<u64>(),
        tail in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let ckpt = build_checkpoint(step, vec![7u8; 16], vec![], 0, vec![], None);
        let mut bytes = ckpt.to_bytes();
        bytes.extend_from_slice(&tail);
        prop_assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    /// The CRC32 implementation matches the IEEE 802.3 polynomial's
    /// defining identities: appending a byte updates the state the same
    /// way regardless of the prefix content length.
    #[test]
    fn crc32_differs_on_any_single_bit_flip(
        data in prop::collection::vec(any::<u8>(), 1..128),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let original = crc32(&data);
        let mut flipped = data.clone();
        let idx = (byte_pick % data.len() as u64) as usize;
        flipped[idx] ^= 1u8 << bit;
        prop_assert_ne!(original, crc32(&flipped));
    }
}
